//! Deterministic MI fault injection.
//!
//! Two layers of chaos, both deterministic:
//!
//! * [`FaultTransport`] wraps any framed transport and mangles selected
//!   received frames: truncation, byte corruption, duplication, a
//!   mid-command EOF, plus the *liveness* faults — a hang that eats the
//!   caller's deadline, a stall that delays delivery, and a crash that
//!   kills the link permanently.
//! * [`ChaosPort`] wraps a [`CommandPort`] (via
//!   [`chaos_wrapper`], an [`easytracker::PortWrapper`]) and wedges or
//!   kills the boundary at a chosen *call* index. Its trigger state is
//!   shared across engine respawns, so a one-shot schedule fires exactly
//!   once per supervised session no matter how often the supervisor
//!   rebuilds the port.
//!
//! The conformance contract (see `tests/fault_injection.rs` and
//! `tests/chaos.rs`): every injected fault surfaces as a *typed* error —
//! [`MiError`] on the client side, a typed `Response::Error` on the
//! server side — never a panic, a hang past the deadline, or a silently
//! desynchronized session; and a supervised session either recovers to
//! the exact fault-free behaviour or reports `SessionDegraded`.

use easytracker::PortWrapper;
use mi::protocol::{Command, Response};
use mi::transport::{FrameRx, FrameTx, TransportCounters};
use mi::{CommandPort, MiError};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What to do to a received frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Cut the frame's payload in half.
    Truncate,
    /// Flip the bits of the payload's middle byte.
    Corrupt,
    /// Deliver the frame, then deliver it again on the next receive.
    Duplicate,
    /// Report EOF for this receive; the frame is delivered (stale) on the
    /// next receive, as if the peer resent its buffer on reconnect.
    Eof,
    /// Wedge: sleep the caller's full deadline out, then report
    /// [`MiError::Timeout`]. The frame is *not* consumed — it arrives as
    /// a stale frame on a later receive. Without a deadline the hang is
    /// bounded at one second (a test harness must never truly hang).
    Hang,
    /// Delay delivery by 50 ms, then deliver normally — exercises
    /// deadline slack without changing observable behaviour.
    Stall,
    /// Kill the link: this receive and every receive/send after it report
    /// [`MiError::Disconnected`].
    Crash,
}

impl FaultKind {
    /// The frame-mangling kinds: faults that damage bytes on the wire
    /// but leave the link itself alive. Recovery from these never needs
    /// a respawn — re-issuing the failed command suffices.
    pub const WIRE: [FaultKind; 4] = [
        FaultKind::Truncate,
        FaultKind::Corrupt,
        FaultKind::Duplicate,
        FaultKind::Eof,
    ];

    /// Every kind, liveness faults included, for exhaustive test loops.
    pub const ALL: [FaultKind; 7] = [
        FaultKind::Truncate,
        FaultKind::Corrupt,
        FaultKind::Duplicate,
        FaultKind::Eof,
        FaultKind::Hang,
        FaultKind::Stall,
        FaultKind::Crash,
    ];

    /// Stable lowercase name, used in obs counter keys.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Truncate => "truncate",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Eof => "eof",
            FaultKind::Hang => "hang",
            FaultKind::Stall => "stall",
            FaultKind::Crash => "crash",
        }
    }
}

/// A transport proxy injecting a deterministic fault plan.
///
/// The plan is a list of `(receive_index, kind)` pairs; receive indices
/// are 1-based and count calls to [`FrameRx::recv`]. Each injection
/// increments `conformance.fault.injected.<kind>` in the registry.
pub struct FaultTransport<T> {
    inner: T,
    plan: Vec<(usize, FaultKind)>,
    recv_count: usize,
    queued: Option<Vec<u8>>,
    crashed: bool,
    registry: obs::Registry,
}

impl<T> FaultTransport<T> {
    /// Wraps `inner` with the given fault plan, counting into `registry`.
    pub fn new(inner: T, plan: Vec<(usize, FaultKind)>, registry: obs::Registry) -> Self {
        FaultTransport {
            inner,
            plan,
            recv_count: 0,
            queued: None,
            crashed: false,
            registry,
        }
    }

    /// Convenience: a single fault at receive number `at`.
    pub fn single(inner: T, at: usize, kind: FaultKind, registry: obs::Registry) -> Self {
        Self::new(inner, vec![(at, kind)], registry)
    }
}

impl<T: FrameRx> FaultTransport<T> {
    fn inner_recv(&mut self, deadline: Option<Duration>) -> Result<Vec<u8>, MiError> {
        match deadline {
            None => self.inner.recv(),
            Some(d) => self.inner.recv_deadline(d),
        }
    }

    fn recv_impl(&mut self, deadline: Option<Duration>) -> Result<Vec<u8>, MiError> {
        if self.crashed {
            return Err(MiError::Disconnected);
        }
        if let Some(frame) = self.queued.take() {
            return Ok(frame);
        }
        self.recv_count += 1;
        let fault = self
            .plan
            .iter()
            .find(|(at, _)| *at == self.recv_count)
            .map(|(_, k)| *k);
        let Some(kind) = fault else {
            return self.inner_recv(deadline);
        };
        self.registry
            .inc(&format!("conformance.fault.injected.{}", kind.name()));
        match kind {
            FaultKind::Truncate => {
                let mut frame = self.inner_recv(deadline)?;
                frame.truncate(frame.len() / 2);
                Ok(frame)
            }
            FaultKind::Corrupt => {
                let mut frame = self.inner_recv(deadline)?;
                let mid = frame.len() / 2;
                if let Some(b) = frame.get_mut(mid) {
                    *b ^= 0xFF;
                }
                Ok(frame)
            }
            FaultKind::Duplicate => {
                let frame = self.inner_recv(deadline)?;
                self.queued = Some(frame.clone());
                Ok(frame)
            }
            FaultKind::Eof => {
                let frame = self.inner_recv(deadline)?;
                self.queued = Some(frame);
                Err(MiError::Disconnected)
            }
            FaultKind::Hang => {
                // The pending response is never read here; it surfaces
                // as a stale frame on a later receive, exactly like a
                // wedged peer waking back up.
                std::thread::sleep(deadline.unwrap_or(Duration::from_secs(1)));
                Err(MiError::Timeout)
            }
            FaultKind::Stall => {
                let delay = Duration::from_millis(50);
                std::thread::sleep(delay);
                self.inner_recv(deadline.map(|d| d.saturating_sub(delay)))
            }
            FaultKind::Crash => {
                self.crashed = true;
                Err(MiError::Disconnected)
            }
        }
    }
}

impl<T: FrameTx> FrameTx for FaultTransport<T> {
    fn send(&mut self, frame: &[u8]) -> Result<(), MiError> {
        if self.crashed {
            return Err(MiError::Disconnected);
        }
        self.inner.send(frame)
    }

    fn framing(&self) -> u64 {
        self.inner.framing()
    }
}

impl<T: FrameRx> FrameRx for FaultTransport<T> {
    fn recv(&mut self) -> Result<Vec<u8>, MiError> {
        self.recv_impl(None)
    }

    fn recv_deadline(&mut self, deadline: Duration) -> Result<Vec<u8>, MiError> {
        self.recv_impl(Some(deadline))
    }

    fn wire_bytes(&self) -> u64 {
        self.inner.wire_bytes()
    }
}

// ---- port-level chaos for supervised sessions ----------------------------

/// How a [`ChaosPort`] misbehaves when its trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosFault {
    /// The boundary wedges for one call: the full deadline is slept out
    /// and [`MiError::Timeout`] is reported (bounded at one second when
    /// no deadline is set). Later calls behave normally.
    Hang,
    /// The engine dies: this and every later call on this port
    /// incarnation report [`MiError::Disconnected`]. Only a respawned
    /// port (a fresh incarnation from the wrapper) works again.
    Crash,
}

impl ChaosFault {
    /// Stable lowercase name, used in obs counter keys.
    pub fn name(self) -> &'static str {
        match self {
            ChaosFault::Hang => "hang",
            ChaosFault::Crash => "crash",
        }
    }
}

/// A one-shot chaos schedule: fire `fault` at the `at_call`-th
/// [`CommandPort`] call (1-based) of the supervised session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPlan {
    /// 1-based call index at which the fault fires.
    pub at_call: usize,
    /// What happens there.
    pub fault: ChaosFault,
}

/// Trigger state shared by every incarnation of a chaos-wrapped port, so
/// the schedule is counted across respawns and fires exactly once.
#[derive(Debug, Default)]
pub struct ChaosState {
    calls: AtomicUsize,
    fired: AtomicBool,
}

impl ChaosState {
    /// Fresh, nothing fired.
    pub fn new() -> Arc<Self> {
        Arc::new(ChaosState::default())
    }

    /// Whether the scheduled fault has fired.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::SeqCst)
    }

    /// Total port calls observed across all incarnations.
    pub fn calls(&self) -> usize {
        self.calls.load(Ordering::SeqCst)
    }
}

/// A [`CommandPort`] proxy that wedges or kills the boundary per a
/// [`ChaosPlan`]. Built via [`chaos_wrapper`] so the supervisor re-wraps
/// every respawned port with the same shared [`ChaosState`].
pub struct ChaosPort {
    inner: Box<dyn CommandPort>,
    plan: ChaosPlan,
    state: Arc<ChaosState>,
    registry: obs::Registry,
    /// Crash fired on *this* incarnation: the engine behind it is gone.
    dead: bool,
}

impl ChaosPort {
    fn trigger(&mut self) -> Option<ChaosFault> {
        let n = self.state.calls.fetch_add(1, Ordering::SeqCst) + 1;
        if n == self.plan.at_call && !self.state.fired.swap(true, Ordering::SeqCst) {
            self.registry.inc(&format!(
                "conformance.chaos.injected.{}",
                self.plan.fault.name()
            ));
            Some(self.plan.fault)
        } else {
            None
        }
    }

    fn fault_result(
        &mut self,
        fault: ChaosFault,
        deadline: Option<Duration>,
    ) -> Result<Response, MiError> {
        match fault {
            ChaosFault::Hang => {
                std::thread::sleep(deadline.unwrap_or(Duration::from_secs(1)));
                Err(MiError::Timeout)
            }
            ChaosFault::Crash => {
                self.dead = true;
                Err(MiError::Disconnected)
            }
        }
    }

    fn call_impl(
        &mut self,
        command: Command,
        deadline: Option<Duration>,
    ) -> Result<Response, MiError> {
        if self.dead {
            return Err(MiError::Disconnected);
        }
        if let Some(fault) = self.trigger() {
            return self.fault_result(fault, deadline);
        }
        match deadline {
            None => self.inner.call(command),
            Some(_) => self.inner.call_deadline(command, deadline),
        }
    }
}

impl CommandPort for ChaosPort {
    fn call(&mut self, command: Command) -> Result<Response, MiError> {
        self.call_impl(command, None)
    }

    fn call_deadline(
        &mut self,
        command: Command,
        deadline: Option<Duration>,
    ) -> Result<Response, MiError> {
        self.call_impl(command, deadline)
    }

    fn counters(&self) -> TransportCounters {
        self.inner.counters()
    }
}

/// An [`easytracker::PortWrapper`] injecting `plan` with trigger state in
/// `state`; wraps the initial port and every respawned one.
pub fn chaos_wrapper(
    plan: ChaosPlan,
    state: Arc<ChaosState>,
    registry: obs::Registry,
) -> PortWrapper {
    Box::new(move |inner| {
        Box::new(ChaosPort {
            inner,
            plan,
            state: Arc::clone(&state),
            registry: registry.clone(),
            dead: false,
        })
    })
}

/// A counting passthrough port; [`counting_wrapper`] builds it. Used to
/// measure how many port calls a reference run makes, so a chaos schedule
/// can pick a seeded call index that is guaranteed to fire.
struct CountingPort {
    inner: Box<dyn CommandPort>,
    calls: Arc<AtomicUsize>,
}

impl CommandPort for CountingPort {
    fn call(&mut self, command: Command) -> Result<Response, MiError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        self.inner.call(command)
    }

    fn call_deadline(
        &mut self,
        command: Command,
        deadline: Option<Duration>,
    ) -> Result<Response, MiError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        self.inner.call_deadline(command, deadline)
    }

    fn counters(&self) -> TransportCounters {
        self.inner.counters()
    }
}

/// Wrapper counting every port call into `calls` (shared, survives
/// respawns).
pub fn counting_wrapper(calls: Arc<AtomicUsize>) -> PortWrapper {
    Box::new(move |inner| {
        Box::new(CountingPort {
            inner,
            calls: Arc::clone(&calls),
        })
    })
}

/// A port with nobody behind it: every call reports
/// [`MiError::Disconnected`]. [`dead_wrapper`] interposes it to simulate
/// an engine that can never be respawned (for respawn-storm tests).
pub struct DeadPort;

impl CommandPort for DeadPort {
    fn call(&mut self, _: Command) -> Result<Response, MiError> {
        Err(MiError::Disconnected)
    }

    fn counters(&self) -> TransportCounters {
        TransportCounters::default()
    }
}

/// Wrapper discarding the real port and substituting a [`DeadPort`], so
/// every (re)spawn comes up dead.
pub fn dead_wrapper() -> PortWrapper {
    Box::new(|inner| {
        drop(inner);
        Box::new(DeadPort)
    })
}
