//! The host-speed reference: a fixed kernel shaped like the simulator
//! (a set-associative cache with LRU, a gshare-style predictor table, a
//! register scoreboard and a reorder window, driven by a pseudo-random
//! op stream), timed next to the workload so the benchmark can tell a
//! slower program from a slower host.
//!
//! It lives in the benchmark and calls nothing in the repository's
//! crates, so no change to the program moves it. On the shared host the
//! benchmark was tuned on, its time followed the simulator's through the
//! host's slow phases far better than a tight arithmetic loop or a
//! pointer chase did; see benchmark/README.md.

use std::time::Instant;

const SETS: usize = 512;
const WAYS: usize = 8;
const PHT: usize = 1 << 14;
const WINDOW: usize = 192;

/// Micro-ops one calibration runs (about 6 ms on the 2-CPU host the
/// benchmark was tuned on).
const CAL_OPS: u32 = 300_000;

pub struct Kernel {
    tags: Vec<u64>,
    lru: Vec<u8>,
    pht: Vec<u8>,
    ready: [u32; 64],
    window: Vec<u32>,
    rng: u64,
}

impl Kernel {
    #[must_use]
    pub fn new() -> Kernel {
        Kernel {
            tags: vec![0; SETS * WAYS],
            lru: vec![0; SETS * WAYS],
            pht: vec![1; PHT],
            ready: [0; 64],
            window: Vec::with_capacity(WINDOW),
            rng: 0x1234_5678,
        }
    }

    fn next(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// One cache access with LRU update; true on a hit.
    fn access(&mut self, addr: u64) -> bool {
        let set = ((addr >> 6) as usize % SETS) * WAYS;
        let tag = addr >> 15;
        let ways = set..set + WAYS;
        if let Some(hit) = ways.clone().find(|&w| self.tags[w] == tag) {
            for w in ways {
                if self.lru[w] < self.lru[hit] {
                    self.lru[w] += 1;
                }
            }
            self.lru[hit] = 0;
            return true;
        }
        let victim = ways.clone().max_by_key(|&w| self.lru[w]).unwrap_or(set);
        self.tags[victim] = tag;
        for w in ways {
            self.lru[w] = self.lru[w].saturating_add(1);
        }
        self.lru[victim] = 0;
        false
    }

    /// Runs `ops` pseudo-random micro-ops; the result only keeps the
    /// work from being optimised away.
    pub fn run(&mut self, ops: u32) -> u64 {
        let (mut acc, mut pc, mut ghr) = (0u64, 0u64, 0u64);
        for i in 0..ops {
            let r = self.next();
            let dst = ((r >> 4) & 63) as usize;
            let src_ready = self.ready[((r >> 10) & 63) as usize].max(i);
            match r & 15 {
                0..=5 => self.ready[dst] = src_ready + 1,
                6 | 7 => self.ready[dst] = src_ready + 3 + (r & 1) as u32,
                8..=10 => {
                    let addr = (r >> 16) & ((1 << 22) - 1) & !((pc & 3) << 20);
                    let hit = self.access(addr);
                    self.ready[dst] = src_ready + if hit { 4 } else { 40 };
                }
                11 => {
                    self.access(r >> 20);
                }
                _ => {
                    let idx = ((pc ^ ghr) as usize) % PHT;
                    let taken = (r >> 30) & 3 != 0;
                    let predicted = self.pht[idx] >= 2;
                    self.pht[idx] = if taken {
                        (self.pht[idx] + 1).min(3)
                    } else {
                        self.pht[idx].saturating_sub(1)
                    };
                    ghr = (ghr << 1) | u64::from(taken);
                    if predicted != taken {
                        acc += 10;
                        self.window.clear();
                    }
                    pc = pc.wrapping_add(if taken { r >> 40 } else { 4 });
                }
            }
            self.window.push(self.ready[dst]);
            if self.window.len() >= WINDOW {
                acc += self.window.iter().filter(|&&t| t <= i).count() as u64;
                self.window.drain(..64);
            }
        }
        acc
    }

    /// Wall nanoseconds of one calibration.
    pub fn time_ns(&mut self) -> u64 {
        let t0 = Instant::now();
        std::hint::black_box(self.run(CAL_OPS));
        u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

impl Default for Kernel {
    fn default() -> Kernel {
        Kernel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic() {
        assert_eq!(Kernel::new().run(50_000), Kernel::new().run(50_000));
    }
}
