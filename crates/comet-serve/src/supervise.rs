//! Crash-restart supervision for serve processes.
//!
//! `comet-serve` contains panics per-connection, but a process can
//! still die: OOM kill, a bug in a dependency, an operator's stray
//! `kill -9`. The [`Supervisor`] keeps `children` copies of a command
//! alive, restarting crashed ones with **jittered exponential
//! backoff** (so N children that crash together do not restart — and
//! re-crash — in lockstep) and giving up via a **restart-rate circuit
//! breaker** when crashes come faster than a configured rate, which
//! means the problem is persistent and restarts are just churn.
//!
//! Shutdown is a graceful drain relay: each child is spawned with a
//! piped stdin it never reads until EOF. Closing that pipe is the
//! drain signal — `comet-serve --supervised` watches stdin and
//! treats EOF exactly like SIGTERM (cancel token → drain → exit).
//! Children that outlive the grace period are killed. This uses only
//! `std::process`, no signal-sending syscalls, so it works the same
//! under the chaos harness and in CI.
//!
//! Everything nondeterministic is parameterized: the backoff jitter
//! comes from a seeded SplitMix64 stream, and [`backoff_delay`] is a
//! pure function of (attempt, jitter draw), so supervision schedules
//! are reproducible in tests and chaos runs.

use std::collections::VecDeque;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use comet_core::cancel::CancelToken;
use comet_core::splitmix64;

/// What to run in each supervised slot.
#[derive(Debug, Clone)]
pub struct ChildSpec {
    /// Program path (e.g. the `comet-serve` binary).
    pub program: String,
    /// Arguments; every `{slot}` substring is replaced with the
    /// child's slot index, so children can e.g. bind distinct ports or
    /// name distinct log files.
    pub args: Vec<String>,
}

impl ChildSpec {
    /// The argv for `slot`, with `{slot}` substituted.
    pub fn args_for(&self, slot: usize) -> Vec<String> {
        self.args.iter().map(|a| a.replace("{slot}", &slot.to_string())).collect()
    }
}

/// Supervision policy.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// How many copies of the child to keep alive.
    pub children: usize,
    /// First restart delay (before jitter).
    pub backoff_base: Duration,
    /// Restart-delay ceiling (before jitter).
    pub backoff_max: Duration,
    /// Seed for the jitter stream (reproducible schedules).
    pub seed: u64,
    /// Restart-rate circuit breaker: more than this many child exits
    /// inside `restart_window` opens the breaker — every child is
    /// killed and the supervisor reports failure instead of churning.
    pub max_restarts: usize,
    /// The sliding window for `max_restarts`.
    pub restart_window: Duration,
    /// How long a drained child gets to exit before being killed.
    pub grace: Duration,
    /// Uptime after which a child's backoff attempt counter resets (it
    /// ran long enough to call the previous crash transient).
    pub stable_after: Duration,
    /// Monitor poll interval.
    pub poll: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            children: 1,
            backoff_base: Duration::from_millis(100),
            backoff_max: Duration::from_secs(5),
            seed: 0,
            max_restarts: 8,
            restart_window: Duration::from_secs(30),
            grace: Duration::from_secs(5),
            stable_after: Duration::from_secs(2),
            poll: Duration::from_millis(20),
        }
    }
}

/// The restart delay for the `attempt`-th consecutive crash (1-based):
/// exponential `base × 2^(attempt−1)` capped at `max`, scaled by a
/// jitter factor in `[0.5, 1.5)` derived from `jitter_unit ∈ [0, 1)`.
/// Pure, so schedules are testable; the supervisor feeds it draws from
/// its seeded stream.
pub fn backoff_delay(base: Duration, max: Duration, attempt: u32, jitter_unit: f64) -> Duration {
    let exp = attempt.saturating_sub(1).min(30);
    let raw = base.saturating_mul(1u32 << exp).min(max);
    raw.mul_f64(0.5 + jitter_unit.clamp(0.0, 1.0 - f64::EPSILON))
}

/// One supervised slot's bookkeeping.
struct Slot {
    child: Option<Child>,
    /// Held open for the child's lifetime; dropping it is the drain
    /// signal (EOF on the child's stdin).
    stdin: Option<ChildStdin>,
    spawned_at: Instant,
    restart_at: Option<Instant>,
    /// Consecutive crashes without a stable run (backoff exponent).
    attempt: u32,
    /// Total times this slot was respawned.
    restarts: u64,
}

/// A point-in-time supervision summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorStatus {
    /// Children currently running.
    pub alive: usize,
    /// Total respawns across all slots.
    pub restarts: u64,
    /// Whether the restart-rate breaker has opened.
    pub breaker_open: bool,
    /// Current pid per slot (`None` while a slot awaits restart).
    pub pids: Vec<Option<u32>>,
}

struct Inner {
    spec: ChildSpec,
    config: SupervisorConfig,
    slots: Mutex<Vec<Slot>>,
    /// Child-exit timestamps inside the sliding breaker window.
    exits: Mutex<VecDeque<Instant>>,
    cancel: CancelToken,
    breaker_open: AtomicBool,
    restarts_total: AtomicU64,
    /// Jitter stream state (seeded; advanced per draw).
    jitter_state: AtomicU64,
    /// Monitor finished (breaker trip or cancellation observed).
    done: AtomicBool,
}

impl Inner {
    fn lock_slots(&self) -> MutexGuard<'_, Vec<Slot>> {
        self.slots.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Next jitter draw in `[0, 1)`.
    fn next_unit(&self) -> f64 {
        let state = self.jitter_state.fetch_add(1, Relaxed);
        (splitmix64(self.config.seed ^ state.wrapping_mul(0x2545_f491_4f6c_dd1d)) >> 11) as f64
            / (1u64 << 53) as f64
    }
}

/// A running supervisor: `children` child processes plus one monitor
/// thread. See the module docs for the restart and drain semantics.
pub struct Supervisor {
    inner: Arc<Inner>,
    monitor: Option<std::thread::JoinHandle<()>>,
}

/// Spawn one child for `slot` with a piped (drain-signal) stdin.
fn spawn_child(spec: &ChildSpec, slot: usize) -> std::io::Result<(Child, Option<ChildStdin>)> {
    let mut child =
        Command::new(&spec.program).args(spec.args_for(slot)).stdin(Stdio::piped()).spawn()?;
    let stdin = child.stdin.take();
    Ok((child, stdin))
}

impl Supervisor {
    /// Spawn all children and the monitor thread. Fails if any initial
    /// spawn fails (a program that cannot start once is configuration
    /// error, not a crash to ride out).
    pub fn start(spec: ChildSpec, config: SupervisorConfig) -> std::io::Result<Supervisor> {
        let count = config.children.max(1);
        let mut slots = Vec::with_capacity(count);
        for slot in 0..count {
            let (child, stdin) = spawn_child(&spec, slot)?;
            eprintln!("[comet-supervisor] slot {slot}: started pid {}", child.id());
            slots.push(Slot {
                child: Some(child),
                stdin,
                spawned_at: Instant::now(),
                restart_at: None,
                attempt: 0,
                restarts: 0,
            });
        }
        let inner = Arc::new(Inner {
            spec,
            config,
            slots: Mutex::new(slots),
            exits: Mutex::new(VecDeque::new()),
            cancel: CancelToken::new(),
            breaker_open: AtomicBool::new(false),
            restarts_total: AtomicU64::new(0),
            jitter_state: AtomicU64::new(0),
            done: AtomicBool::new(false),
        });
        let monitor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("comet-supervisor-monitor".into())
                .spawn(move || monitor_loop(&inner))
                .expect("spawn monitor")
        };
        Ok(Supervisor { inner, monitor: Some(monitor) })
    }

    /// The token that stops supervision (wired to SIGINT/SIGTERM by
    /// the binary).
    pub fn cancel_token(&self) -> &CancelToken {
        &self.inner.cancel
    }

    /// A point-in-time summary.
    pub fn status(&self) -> SupervisorStatus {
        let slots = self.inner.lock_slots();
        SupervisorStatus {
            alive: slots.iter().filter(|s| s.child.is_some()).count(),
            restarts: self.inner.restarts_total.load(Relaxed),
            breaker_open: self.inner.breaker_open.load(Relaxed),
            pids: slots.iter().map(|s| s.child.as_ref().map(|c| c.id())).collect(),
        }
    }

    /// Whether supervision has ended on its own (breaker trip).
    pub fn done(&self) -> bool {
        self.inner.done.load(Relaxed)
    }

    /// Kill `slot`'s child outright (SIGKILL — the chaos harness's
    /// "crash" lever). Returns whether a child was there to kill.
    pub fn kill_child(&self, slot: usize) -> bool {
        let mut slots = self.inner.lock_slots();
        match slots.get_mut(slot).and_then(|s| s.child.as_mut()) {
            Some(child) => {
                let _ = child.kill();
                true
            }
            None => false,
        }
    }

    /// Stop supervising and drain: cancel, send every child the drain
    /// signal (stdin EOF), give them `grace` to exit, kill stragglers,
    /// and join the monitor. Returns the process exit code: 1 if the
    /// restart-rate breaker opened, 0 otherwise.
    pub fn shutdown(mut self) -> i32 {
        self.inner.cancel.cancel();
        if let Some(monitor) = self.monitor.take() {
            let _ = monitor.join();
        }
        // Drain signal: close every stdin pipe.
        {
            let mut slots = self.inner.lock_slots();
            for slot in slots.iter_mut() {
                slot.stdin = None;
                slot.restart_at = None;
            }
        }
        let deadline = Instant::now() + self.inner.config.grace;
        loop {
            let mut remaining = 0usize;
            {
                let mut slots = self.inner.lock_slots();
                for slot in slots.iter_mut() {
                    if let Some(child) = &mut slot.child {
                        match child.try_wait() {
                            Ok(Some(_)) => slot.child = None,
                            _ => remaining += 1,
                        }
                    }
                }
            }
            if remaining == 0 {
                break;
            }
            if Instant::now() >= deadline {
                let mut slots = self.inner.lock_slots();
                for (i, slot) in slots.iter_mut().enumerate() {
                    if let Some(child) = &mut slot.child {
                        eprintln!(
                            "[comet-supervisor] slot {i}: drain grace expired, killing pid {}",
                            child.id()
                        );
                        let _ = child.kill();
                        let _ = child.wait();
                        slot.child = None;
                    }
                }
                break;
            }
            std::thread::sleep(self.inner.config.poll);
        }
        if self.inner.breaker_open.load(Relaxed) {
            1
        } else {
            0
        }
    }
}

/// The monitor: poll children, schedule restarts, trip the breaker.
fn monitor_loop(inner: &Arc<Inner>) {
    let config = inner.config;
    while !inner.cancel.is_cancelled() && !inner.done.load(Relaxed) {
        let now = Instant::now();
        let mut slots = inner.lock_slots();
        for i in 0..slots.len() {
            let slot = &mut slots[i];
            if let Some(child) = &mut slot.child {
                match child.try_wait() {
                    Ok(Some(status)) => {
                        let pid = child.id();
                        let uptime = now.duration_since(slot.spawned_at);
                        slot.child = None;
                        slot.stdin = None;
                        // Count this exit against the breaker window.
                        let tripped = {
                            let mut exits = inner.exits.lock().unwrap_or_else(|p| p.into_inner());
                            exits.push_back(now);
                            while exits
                                .front()
                                .is_some_and(|&t| now.duration_since(t) > config.restart_window)
                            {
                                exits.pop_front();
                            }
                            exits.len() > config.max_restarts
                        };
                        if tripped {
                            eprintln!(
                                "[comet-supervisor] breaker open: >{} exits in {:?}; giving up",
                                config.max_restarts, config.restart_window
                            );
                            inner.breaker_open.store(true, Relaxed);
                            for (j, other) in slots.iter_mut().enumerate() {
                                if let Some(child) = &mut other.child {
                                    eprintln!(
                                        "[comet-supervisor] slot {j}: killing pid {}",
                                        child.id()
                                    );
                                    let _ = child.kill();
                                    let _ = child.wait();
                                    other.child = None;
                                    other.stdin = None;
                                }
                            }
                            inner.done.store(true, Relaxed);
                            return;
                        }
                        if uptime >= config.stable_after {
                            slot.attempt = 0;
                        }
                        slot.attempt += 1;
                        let delay = backoff_delay(
                            config.backoff_base,
                            config.backoff_max,
                            slot.attempt,
                            inner.next_unit(),
                        );
                        slot.restart_at = Some(now + delay);
                        eprintln!(
                            "[comet-supervisor] slot {i}: pid {pid} exited ({status}) after \
                             {uptime:?}; restart #{} in {delay:?}",
                            slot.restarts + 1
                        );
                    }
                    Ok(None) => {}
                    // try_wait errors are transient kernel-side
                    // weirdness; re-poll next tick.
                    Err(_) => {}
                }
            } else if slot.restart_at.is_some_and(|t| now >= t) {
                match spawn_child(&inner.spec, i) {
                    Ok((child, stdin)) => {
                        eprintln!("[comet-supervisor] slot {i}: restarted as pid {}", child.id());
                        slot.child = Some(child);
                        slot.stdin = stdin;
                        slot.spawned_at = now;
                        slot.restart_at = None;
                        slot.restarts += 1;
                        inner.restarts_total.fetch_add(1, Relaxed);
                    }
                    Err(e) => {
                        // Spawn failure counts as another crash: back
                        // off harder rather than hot-looping on it.
                        slot.attempt = slot.attempt.saturating_add(1);
                        let delay = backoff_delay(
                            config.backoff_base,
                            config.backoff_max,
                            slot.attempt,
                            inner.next_unit(),
                        );
                        slot.restart_at = Some(now + delay);
                        eprintln!(
                            "[comet-supervisor] slot {i}: respawn failed ({e}); retry in {delay:?}"
                        );
                    }
                }
            }
        }
        drop(slots);
        std::thread::sleep(config.poll);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_caps_and_jitters() {
        let base = Duration::from_millis(100);
        let max = Duration::from_secs(5);
        // Mid-jitter (0.5 unit → ×1.0): pure exponential.
        assert_eq!(backoff_delay(base, max, 1, 0.5), Duration::from_millis(100));
        assert_eq!(backoff_delay(base, max, 2, 0.5), Duration::from_millis(200));
        assert_eq!(backoff_delay(base, max, 3, 0.5), Duration::from_millis(400));
        // The cap holds even at absurd attempts and full jitter.
        assert!(backoff_delay(base, max, 40, 0.999) < Duration::from_secs(8));
        // Jitter spans [0.5, 1.5) of the raw delay.
        assert_eq!(backoff_delay(base, max, 1, 0.0), Duration::from_millis(50));
        assert!(backoff_delay(base, max, 1, 0.999) >= Duration::from_millis(149));
        // Pure: same inputs, same output.
        assert_eq!(backoff_delay(base, max, 4, 0.25), backoff_delay(base, max, 4, 0.25));
    }

    #[test]
    fn child_spec_substitutes_slot_index() {
        let spec = ChildSpec {
            program: "serve".into(),
            args: vec!["--addr".into(), "127.0.0.1:90{slot}".into(), "--supervised".into()],
        };
        assert_eq!(spec.args_for(3), vec!["--addr", "127.0.0.1:903", "--supervised"]);
        assert_eq!(spec.args_for(0)[1], "127.0.0.1:900");
    }

    #[test]
    fn jitter_stream_is_seeded_and_deterministic() {
        let mk = |seed| Inner {
            spec: ChildSpec { program: "x".into(), args: vec![] },
            config: SupervisorConfig { seed, ..SupervisorConfig::default() },
            slots: Mutex::new(Vec::new()),
            exits: Mutex::new(VecDeque::new()),
            cancel: CancelToken::new(),
            breaker_open: AtomicBool::new(false),
            restarts_total: AtomicU64::new(0),
            jitter_state: AtomicU64::new(0),
            done: AtomicBool::new(false),
        };
        let (a, b, c) = (mk(42), mk(42), mk(43));
        let draws_a: Vec<f64> = (0..16).map(|_| a.next_unit()).collect();
        let draws_b: Vec<f64> = (0..16).map(|_| b.next_unit()).collect();
        let draws_c: Vec<f64> = (0..16).map(|_| c.next_unit()).collect();
        assert_eq!(draws_a, draws_b, "same seed, same jitter schedule");
        assert_ne!(draws_a, draws_c, "different seed, different schedule");
        assert!(draws_a.iter().all(|u| (0.0..1.0).contains(u)));
    }
}
