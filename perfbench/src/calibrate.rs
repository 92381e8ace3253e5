//! Host-speed calibration.
//!
//! The shared hosts this benchmark runs on change speed by up to about 1.8×
//! over minutes, and every operation slows alike: builds, single-threaded
//! inserts and two-worker queries.  A fixed reference kernel, timed before
//! each group of measured calls and at most [`INTERVAL_S`] apart within
//! one, tracks that speed.  Every timing the end-to-end run reports is the
//! wall time scaled by [`REFERENCE_PASS_MS`] / (the kernel's pass time
//! around the call): the time the call would take on a host that runs the
//! kernel in exactly `REFERENCE_PASS_MS`.  The kernel lives in this file and
//! never calls the engine, so a change to the engine moves the scaled
//! timings exactly as it moves the wall times.

use std::time::Instant;

/// The kernel's pass time, in ms, on the reference host (a 2-vCPU VM in a
/// steady stretch).  Only a unit: changing it rescales every timing.
pub const REFERENCE_PASS_MS: f64 = 1.25;

/// Kernel passes per calibration; their median is the current pass time.
const PASSES: usize = 5;

const VERTICES: usize = 8192;
const DEGREE: usize = 6;
const KEYS: usize = 32_768;
const SLOTS: usize = 4096;

/// A fixed piece of work in the engine's mix: breadth-first walks over CSR
/// adjacency, a sort, open-addressing counting and floating-point
/// arithmetic.  It allocates nothing per pass, so the engine's heap cannot
/// change its cost; its working set (about 0.8 MiB) is warm after one pass.
pub struct Kernel {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    keys: Vec<u64>,
    sorted: Vec<u64>,
    stamp: Vec<u32>,
    queue: Vec<u32>,
    slots: Vec<(u64, u32)>,
    walks: u32,
}

impl Kernel {
    /// Builds the kernel's fixed inputs and scratch buffers.
    pub fn new() -> Kernel {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut offsets = Vec::with_capacity(VERTICES + 1);
        let mut targets = Vec::with_capacity(VERTICES * DEGREE);
        offsets.push(0);
        for _ in 0..VERTICES {
            for _ in 0..DEGREE {
                targets.push((next() % VERTICES as u64) as u32);
            }
            offsets.push(targets.len() as u32);
        }
        let keys: Vec<u64> = (0..KEYS).map(|_| next()).collect();
        Kernel {
            offsets,
            targets,
            sorted: keys.clone(),
            keys,
            stamp: vec![0; VERTICES],
            queue: Vec::with_capacity(VERTICES),
            slots: vec![(0, 0); SLOTS],
            walks: 0,
        }
    }

    /// One pass of the fixed work; the checksum keeps it from being elided.
    pub fn pass(&mut self) -> u64 {
        let mut sum = 0u64;
        for walk in 0..4usize {
            self.walks = self.walks.wrapping_add(1).max(1);
            let mark = self.walks;
            let start = (walk * 2_654_435_761) % VERTICES;
            self.queue.clear();
            self.queue.push(start as u32);
            self.stamp[start] = mark;
            let mut head = 0;
            while head < self.queue.len() {
                let v = self.queue[head] as usize;
                head += 1;
                let row = self.offsets[v] as usize..self.offsets[v + 1] as usize;
                for &w in &self.targets[row] {
                    if self.stamp[w as usize] != mark {
                        self.stamp[w as usize] = mark;
                        self.queue.push(w);
                    }
                }
            }
            sum += self.queue.len() as u64;
        }

        self.sorted.copy_from_slice(&self.keys);
        self.sorted.sort_unstable();
        sum ^= self.sorted[KEYS / 2];

        self.slots.fill((0, 0));
        for &k in &self.keys[..KEYS / 4] {
            let key = k % 2053 + 1;
            let mut i = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 52) as usize % SLOTS;
            while self.slots[i].0 != 0 && self.slots[i].0 != key {
                i = (i + 1) % SLOTS;
            }
            self.slots[i] = (key, self.slots[i].1 + 1);
        }
        sum += self.slots.iter().filter(|s| s.1 > 1).count() as u64;

        let mut acc = 0.0f64;
        for (i, &k) in self.keys[..KEYS / 4].iter().enumerate() {
            let p = (k >> 11) as f64 / (1u64 << 53) as f64;
            acc += (1.0 - p).ln_1p() * (i as f64 + 1.0).sqrt();
        }
        sum ^ acc.to_bits()
    }
}

impl Default for Kernel {
    fn default() -> Kernel {
        Kernel::new()
    }
}

/// A wall time and when it ended.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    seconds: f64,
    /// End of the call, in seconds since the first calibration.
    end: f64,
    /// Index of the last calibration before the call ended.
    mark: usize,
}

/// The host's speed over a run, as measured by the kernel.
///
/// A timing is scaled by the median pass time of the calibrations taken
/// within its own duration plus [`INTERVAL_S`] on either side of it, or, when
/// fewer than two fall there, by the mean of the calibrations just before
/// and just after it.  Calibrating at most `INTERVAL_S` apart during
/// measured calls puts calibrations on both sides of every short call, and
/// a long build is scaled by the host's speed over the operations around
/// it.
#[derive(Default)]
pub struct HostSpeed {
    kernel: Kernel,
    origin: Option<Instant>,
    /// `(time since origin, median pass time)` of each calibration, seconds.
    passes: Vec<(f64, f64)>,
    last: Option<Instant>,
    checksum: u64,
}

/// Longest stretch of measured calls between two calibrations, in seconds.
pub const INTERVAL_S: f64 = 0.1;

impl HostSpeed {
    /// Times the kernel now.
    pub fn calibrate(&mut self) {
        let origin = *self.origin.get_or_insert_with(Instant::now);
        let mut times = [0.0; PASSES];
        for t in &mut times {
            let start = Instant::now();
            self.checksum ^= std::hint::black_box(self.kernel.pass());
            *t = start.elapsed().as_secs_f64();
        }
        times.sort_by(f64::total_cmp);
        self.passes
            .push((origin.elapsed().as_secs_f64(), times[PASSES / 2]));
        self.last = Some(Instant::now());
    }

    /// Records `seconds` of wall time of a call that just ended, and
    /// calibrates if the last calibration is [`INTERVAL_S`] old.
    pub fn stamp(&mut self, seconds: f64) -> Timed {
        if self.passes.is_empty() {
            self.calibrate();
        }
        let end = self.origin.map_or(0.0, |o| o.elapsed().as_secs_f64());
        let timed = Timed {
            seconds,
            end,
            mark: self.passes.len() - 1,
        };
        if self
            .last
            .is_none_or(|t| t.elapsed().as_secs_f64() >= INTERVAL_S)
        {
            self.calibrate();
        }
        timed
    }

    /// `t` in seconds at the reference speed.
    pub fn scaled(&self, t: Timed) -> f64 {
        let margin = t.seconds + INTERVAL_S;
        let (from, to) = (t.end - t.seconds - margin, t.end + margin);
        let mut near: Vec<f64> = self
            .passes
            .iter()
            .filter(|(at, _)| (from..=to).contains(at))
            .map(|&(_, pass)| pass)
            .collect();
        let pass = if near.len() >= 2 {
            near.sort_by(f64::total_cmp);
            let n = near.len();
            (near[(n - 1) / 2] + near[n / 2]) / 2.0
        } else {
            let before = self.passes[t.mark].1;
            let after = self.passes.get(t.mark + 1).map_or(before, |p| p.1);
            (before + after) / 2.0
        };
        t.seconds * REFERENCE_PASS_MS * 1e-3 / pass
    }

    /// Every timing of `ts` in ms at the reference speed.
    pub fn scaled_ms(&self, ts: &[Timed]) -> Vec<f64> {
        ts.iter().map(|&t| self.scaled(t) * 1e3).collect()
    }

    /// Calibrations so far, and their median, minimum and maximum pass time
    /// in ms.
    pub fn summary_ms(&self) -> (usize, f64, f64, f64) {
        let mut xs: Vec<f64> = self.passes.iter().map(|p| p.1 * 1e3).collect();
        xs.sort_by(f64::total_cmp);
        match (xs.first(), xs.last()) {
            (Some(&lo), Some(&hi)) => (xs.len(), xs[(xs.len() - 1) / 2], lo, hi),
            _ => (0, f64::NAN, f64::NAN, f64::NAN),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_work_is_fixed() {
        let mut a = Kernel::new();
        let mut b = Kernel::new();
        let first = a.pass();
        assert_eq!(first, a.pass());
        assert_eq!(first, b.pass());
    }

    #[test]
    fn timings_scale_by_the_calibrations_around_them() {
        let mut speed = HostSpeed {
            passes: vec![(0.0, 1e-3), (1.0, 3e-3), (1.05, 5e-3), (9.0, 2e-3)],
            ..HostSpeed::default()
        };
        let ms = |seconds: f64, end: f64, mark: usize| {
            let t = Timed { seconds, end, mark };
            speed.scaled(t) / (REFERENCE_PASS_MS * seconds)
        };
        // A short call between the first two calibrations: only the
        // bracketing pair applies, mean pass 2 ms.
        assert!((ms(0.01, 0.5, 0) - 1.0 / 2.0).abs() < 1e-9);
        // A short call just after t = 1: the two calibrations near it.
        assert!((ms(0.01, 1.06, 2) - 1.0 / 4.0).abs() < 1e-9);
        // A long call from t = 2 to 8 sees all four: median 2.5 ms.
        assert!((ms(6.0, 8.0, 2) - 1.0 / 2.5).abs() < 1e-9);
        speed.origin = None;
        speed.calibrate();
        let (n, median, lo, hi) = speed.summary_ms();
        assert_eq!(n, 5);
        assert!(lo <= median && median <= hi && lo > 0.0);
    }
}
