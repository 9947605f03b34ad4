//! Machine-speed calibration for the wall-clock metrics.
//!
//! The reference machine shares its host, and its speed drifts by 30 to
//! 45 % between minutes while CPU time stays equal to wall time, so the
//! drift is contention on the host rather than descheduling. A fixed
//! kernel of integer, floating-point and cache work, independent of the
//! program under test, runs before every epoch; its mean time against a
//! fixed reference gives the machine's speed during that repetition, and
//! the wall-clock metrics are scaled to reference seconds by it. On
//! six-seed sets this cut the run-to-run spread of `host_hours_per_s`
//! by about half (README.md, "Noise and reference seconds").

use std::time::Instant;

/// The kernel's time on an idle core of the reference machine (2-vCPU
/// x86-64 VM), in nanoseconds: the scale of a reference second.
const REFERENCE_KERNEL_NS: f64 = 500_000.0;
/// Table words the kernel updates (512 KiB: beyond L1, within L2).
const TABLE_WORDS: usize = 1 << 16;
/// Kernel iterations per sample.
const ITERATIONS: u64 = 100_000;

/// Accumulated kernel samples of one repetition.
pub struct Pace {
    table: Vec<u64>,
    samples: u64,
    kernel_ns: u128,
}

impl Pace {
    /// A calibration with no samples yet.
    pub fn new() -> Self {
        Pace {
            table: vec![0; TABLE_WORDS],
            samples: 0,
            kernel_ns: 0,
        }
    }

    /// Runs the kernel once and records its wall-clock.
    pub fn sample(&mut self) {
        let t = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut acc = 0.0f64;
        for k in 0..ITERATIONS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & (TABLE_WORDS - 1);
            self.table[i] = self.table[i].wrapping_add(k ^ x);
            if k & 3 == 0 {
                acc = acc * 0.5 + (self.table[(i * 7) & (TABLE_WORDS - 1)] as f64).sqrt();
            }
        }
        std::hint::black_box(acc);
        self.kernel_ns += t.elapsed().as_nanos();
        self.samples += 1;
    }

    /// Reference seconds per wall second: the factor that scales a
    /// wall-clock span measured during these samples to the reference
    /// machine (below 1 while the machine runs slower than reference).
    pub fn speed(&self) -> f64 {
        if self.samples == 0 {
            return 1.0;
        }
        REFERENCE_KERNEL_NS / (self.kernel_ns as f64 / self.samples as f64)
    }
}
