//! Simulated time and deterministic fault injection.
//!
//! The paper's experiments run against a 4-disk RAID array with multi-gigabyte
//! tables, so its time axes span hundreds of seconds. Our substitute substrate
//! is [`SimDisk`](../../qpipe-storage) — an in-memory block device that
//! *charges* a configurable latency per block. The engine still runs on real
//! OS threads, so "simulated time" is simply wall time divided by a scale
//! factor: the harness declares how many real microseconds one *paper second*
//! costs, and every time we report or sweep an axis we do so in paper seconds.
//!
//! The [`FaultInjector`] lives here too: a seeded, deterministic schedule of
//! I/O faults (transient errors, permanent errors, single-bit corruption,
//! latency spikes, injected panics) that the disk consults on every block
//! access. Determinism is thread-interleaving-proof because each decision is
//! a pure hash of `(seed, rule, file, block)` — the *order* of accesses never
//! changes which accesses fault.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::ops::Range;
use std::time::Duration;

/// Mapping between wall-clock time and the paper's reported seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeScale {
    /// Real duration corresponding to one paper second.
    pub real_per_paper_sec: Duration,
}

impl TimeScale {
    /// One paper second costs `real_ms` wall milliseconds.
    pub fn paper_sec_is_ms(real_ms: f64) -> Self {
        Self { real_per_paper_sec: Duration::from_secs_f64(real_ms / 1000.0) }
    }

    /// Convert paper seconds to a real duration.
    pub fn to_real(&self, paper_secs: f64) -> Duration {
        self.real_per_paper_sec.mul_f64(paper_secs.max(0.0))
    }

    /// Convert a real duration to paper seconds.
    pub fn to_paper(&self, real: Duration) -> f64 {
        real.as_secs_f64() / self.real_per_paper_sec.as_secs_f64()
    }
}

impl Default for TimeScale {
    /// Default time scale: 1 paper second = 4 real ms.
    fn default() -> Self {
        Self::paper_sec_is_ms(4.0)
    }
}

/// Which disk access path a fault rule applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    Read,
    Write,
    /// Both reads and writes.
    Any,
}

/// What kind of fault a rule injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// I/O error that heals: the first `times` attempts on a matching block
    /// fail, subsequent attempts succeed (models a retryable glitch).
    Transient,
    /// I/O error that never heals: every attempt on a matching block fails.
    Permanent,
    /// The block is served with one data bit flipped; the stored checksum is
    /// left intact, so verification catches it. Heals like `Transient`
    /// after `times` corrupted serves (a retry gets the clean block).
    Corrupt,
    /// The access is delayed by `delay` before proceeding normally.
    Latency,
    /// The accessing thread panics — models an operator worker crash at an
    /// exactly reproducible point. Containment (`catch_unwind`) turns it
    /// into a packet failure.
    Panic,
}

/// What the injector tells the disk to do for one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail the access with an I/O error (message describes the rule).
    Error,
    /// Serve the block with bit `bit` of its payload flipped.
    CorruptBit { bit: u64 },
    /// Sleep for this long, then proceed normally.
    Delay(Duration),
    /// Panic the accessing thread.
    Panic,
}

/// One entry in a fault schedule.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// Applies to files whose name contains this substring ("" = all files).
    pub file_substr: String,
    /// Applies to block numbers in this range.
    pub blocks: Range<u64>,
    pub op: FaultOp,
    pub kind: FaultKind,
    /// Fraction of matching accesses that fault, in [0, 1]. Gated by a pure
    /// hash of `(seed, rule, file, block)`, so the same `(file, block)` pair
    /// always decides the same way regardless of thread timing.
    pub rate: f64,
    /// For `Transient`/`Corrupt`: how many attempts on a given block fault
    /// before it heals. Ignored for `Permanent`/`Latency`/`Panic`.
    pub times: u32,
    /// For `Latency`: how long to delay the access.
    pub delay: Duration,
}

impl FaultRule {
    /// A rule matching every block of every file on both paths; tailor with
    /// the builder methods.
    pub fn new(kind: FaultKind) -> Self {
        Self {
            file_substr: String::new(),
            blocks: 0..u64::MAX,
            op: FaultOp::Any,
            kind,
            rate: 1.0,
            times: 1,
            delay: Duration::from_millis(1),
        }
    }

    pub fn on_file(mut self, substr: &str) -> Self {
        self.file_substr = substr.to_string();
        self
    }

    pub fn on_blocks(mut self, blocks: Range<u64>) -> Self {
        self.blocks = blocks;
        self
    }

    pub fn on_op(mut self, op: FaultOp) -> Self {
        self.op = op;
        self
    }

    pub fn with_rate(mut self, rate: f64) -> Self {
        self.rate = rate.clamp(0.0, 1.0);
        self
    }

    pub fn times(mut self, times: u32) -> Self {
        self.times = times;
        self
    }

    pub fn with_delay(mut self, delay: Duration) -> Self {
        self.delay = delay;
        self
    }
}

/// FNV-1a over a byte slice; the workspace's standalone hash primitive.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| fnv_word(h, b as u64))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a step over a whole word: `(h ^ w) · P`. For a fixed `w` it is a
/// bijection of `h` (P is odd), and for a fixed `h` a bijection of `w` — so a
/// change confined to one word of a stream changes every later state.
#[inline]
pub fn fnv_word(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(FNV_PRIME)
}

/// The page checksum: FNV-1a over 64-bit little-endian words, the tail (under
/// eight bytes) byte by byte. A change confined to one word always changes the
/// sum ([`fnv_word`]), so every single-bit corruption is caught — at an eighth
/// of [`fnv1a`]'s steps.
pub fn page_sum(bytes: &[u8]) -> u64 {
    let (words, tail) = bytes.as_chunks::<8>();
    let h = words.iter().fold(FNV_OFFSET, |h, w| fnv_word(h, u64::from_le_bytes(*w)));
    tail.iter().fold(h, |h, &b| fnv_word(h, b as u64))
}

/// Seeded, deterministic fault injector consulted by `SimDisk` on every
/// block access. Cheap to share (`Arc` it); decisions are reproducible for a
/// given `(seed, rules)` pair independent of thread interleaving.
#[derive(Debug)]
pub struct FaultInjector {
    seed: u64,
    rules: Vec<FaultRule>,
    /// Attempt counters for healing faults, keyed by (rule, file, block).
    /// Only blocks whose hash-gate fired ever get an entry.
    attempts: Mutex<HashMap<(usize, String, u64), u32>>,
    injected: std::sync::atomic::AtomicU64,
}

impl FaultInjector {
    pub fn new(seed: u64, rules: Vec<FaultRule>) -> Self {
        Self {
            seed,
            rules,
            attempts: Mutex::new(HashMap::new()),
            injected: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Total faults injected so far (errors, corruptions, delays, panics).
    pub fn injected(&self) -> u64 {
        self.injected.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Pure per-(rule, file, block) decision hash in [0, 1).
    fn gate(&self, rule_idx: usize, file: &str, block: u64) -> f64 {
        let mut bytes = Vec::with_capacity(file.len() + 24);
        bytes.extend_from_slice(&self.seed.to_le_bytes());
        bytes.extend_from_slice(&(rule_idx as u64).to_le_bytes());
        bytes.extend_from_slice(file.as_bytes());
        bytes.extend_from_slice(&block.to_le_bytes());
        (fnv1a(&bytes) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Decide what (if anything) to inject for this access. At most one rule
    /// fires per access (first match wins); healing rules stop firing after
    /// `times` attempts on a block.
    pub fn decide(&self, file: &str, block: u64, op: FaultOp) -> Option<FaultAction> {
        for (idx, rule) in self.rules.iter().enumerate() {
            let op_match = rule.op == FaultOp::Any || op == FaultOp::Any || rule.op == op;
            if !op_match
                || !rule.blocks.contains(&block)
                || !file.contains(rule.file_substr.as_str())
            {
                continue;
            }
            if self.gate(idx, file, block) >= rule.rate {
                continue;
            }
            // Kinds with an attempt budget: they fire `times` times per
            // (rule, file, block), then heal. `Permanent` never heals and
            // `Latency` is a persistent slowdown, not a countable failure.
            let healing =
                matches!(rule.kind, FaultKind::Transient | FaultKind::Corrupt | FaultKind::Panic);
            if healing {
                let mut attempts = self.attempts.lock();
                let n = attempts.entry((idx, file.to_string(), block)).or_insert(0);
                if *n >= rule.times {
                    continue; // healed
                }
                *n += 1;
            }
            self.injected.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let action = match rule.kind {
                FaultKind::Transient | FaultKind::Permanent => FaultAction::Error,
                FaultKind::Corrupt => {
                    // Deterministic bit choice per (rule, file, block).
                    let mut bytes = Vec::with_capacity(file.len() + 25);
                    bytes.extend_from_slice(&self.seed.to_le_bytes());
                    bytes.extend_from_slice(&(idx as u64).to_le_bytes());
                    bytes.extend_from_slice(file.as_bytes());
                    bytes.extend_from_slice(&block.to_le_bytes());
                    bytes.push(0xC0);
                    FaultAction::CorruptBit { bit: fnv1a(&bytes) }
                }
                FaultKind::Latency => FaultAction::Delay(rule.delay),
                FaultKind::Panic => FaultAction::Panic,
            };
            return Some(action);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_sum_is_word_fnv_and_catches_every_single_bit_flip() {
        // Tail bytes step exactly like `fnv1a`; whole words step once each.
        assert_eq!(page_sum(b"abc"), fnv1a(b"abc"));
        assert_eq!(page_sum(&[]), fnv1a(&[]));
        let word = 0x0807_0605_0403_0201u64;
        assert_eq!(page_sum(&word.to_le_bytes()), fnv_word(FNV_OFFSET, word));
        // Odd length: three words plus a five-byte tail.
        let mut bytes: Vec<u8> = (0..29u32).map(|i| (i * 37 + 11) as u8).collect();
        let sum = page_sum(&bytes);
        for bit in 0..bytes.len() * 8 {
            bytes[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(page_sum(&bytes), sum, "bit {bit}");
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn scale_round_trip() {
        let s = TimeScale::paper_sec_is_ms(2.0);
        let d = s.to_real(10.0);
        assert_eq!(d, Duration::from_millis(20));
        assert!((s.to_paper(d) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn negative_paper_secs_clamp_to_zero() {
        let s = TimeScale::default();
        assert_eq!(s.to_real(-5.0), Duration::ZERO);
    }

    #[test]
    fn transient_fault_heals_after_n_attempts() {
        let inj = FaultInjector::new(7, vec![FaultRule::new(FaultKind::Transient).times(2)]);
        assert_eq!(inj.decide("t", 0, FaultOp::Read), Some(FaultAction::Error));
        assert_eq!(inj.decide("t", 0, FaultOp::Read), Some(FaultAction::Error));
        assert_eq!(inj.decide("t", 0, FaultOp::Read), None, "healed after 2 attempts");
        assert_eq!(inj.injected(), 2);
    }

    #[test]
    fn permanent_fault_never_heals() {
        let inj = FaultInjector::new(7, vec![FaultRule::new(FaultKind::Permanent)]);
        for _ in 0..5 {
            assert_eq!(inj.decide("t", 3, FaultOp::Write), Some(FaultAction::Error));
        }
    }

    #[test]
    fn rate_gate_is_deterministic_and_targeted() {
        let inj = FaultInjector::new(
            42,
            vec![FaultRule::new(FaultKind::Permanent)
                .on_file("lineitem")
                .on_blocks(10..20)
                .with_rate(0.5)],
        );
        // Same (file, block) always decides the same way.
        let first: Vec<bool> =
            (0..40).map(|b| inj.decide("lineitem", b, FaultOp::Read).is_some()).collect();
        let second: Vec<bool> =
            (0..40).map(|b| inj.decide("lineitem", b, FaultOp::Read).is_some()).collect();
        assert_eq!(first, second);
        // Out-of-range blocks and other files never fault.
        assert!(first[..10].iter().all(|&f| !f));
        assert!(first[20..].iter().all(|&f| !f));
        assert!((0..40).all(|b| inj.decide("orders", b, FaultOp::Read).is_none()));
        // At rate 0.5 over 10 blocks, some (but not all) fault.
        let hits = first[10..20].iter().filter(|&&f| f).count();
        assert!(hits > 0 && hits < 10, "rate gate stuck at {hits}/10");
    }

    #[test]
    fn op_filter_and_corrupt_bit_determinism() {
        let inj = FaultInjector::new(
            9,
            vec![FaultRule::new(FaultKind::Corrupt).on_op(FaultOp::Read).times(1)],
        );
        assert_eq!(inj.decide("t", 1, FaultOp::Write), None, "write path exempt");
        let a = inj.decide("t", 1, FaultOp::Read);
        assert!(matches!(a, Some(FaultAction::CorruptBit { .. })));
        assert_eq!(inj.decide("t", 1, FaultOp::Read), None, "corruption healed");
    }
}
