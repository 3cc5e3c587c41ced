//! Seeded input generation. The seed alone decides every call a client
//! makes — op kind, ping token, array length and offset — and the contents
//! of the array the echo arguments are cut from. The ORB only ever sees the
//! generated calls.

/// SplitMix64: tiny, fast and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// A generator for client `client` of the run seeded with `seed`, so
    /// clients draw independent streams.
    pub fn for_client(seed: u64, client: usize) -> Self {
        let mut root = Rng::new(seed ^ 0x6F72_6262_656E_6368);
        for _ in 0..=client {
            root.next_u64();
        }
        Rng::new(root.next_u64())
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// One generated call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Two-way `ping(token)`, plain or through the glue chain.
    Ping { glue: bool, token: u64 },
    /// One-way `ping(token)` over the plain protocol.
    Oneway { token: u64 },
    /// Two-way echo of `base[offset..offset + len]`.
    Echo {
        glue: bool,
        offset: usize,
        len: usize,
    },
}

/// What a workload's clients call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 40% plain ping, 40% glue ping, 20% one-way ping.
    Pings,
    /// Plain echo of `min << k` elements for `k` in `0..OCTAVES`, log-uniform
    /// over the octaves: each block of [`OCTAVES`] calls echoes every length
    /// once, in seeded order. Every stretch of a run then moves the same
    /// bytes, and the middle length holds the median call of any stretch of
    /// a few blocks, so neither rates nor percentiles hinge on which lengths
    /// a stretch happened to draw.
    OctaveEcho { min: usize },
    /// Glue echo of exactly `len` elements.
    FixedGlueEcho { len: usize },
}

impl Mix {
    /// Elements in the array echo arguments are cut from (0: no arrays).
    /// Seeded offsets into it give successive calls different contents.
    pub fn base_len(self) -> usize {
        match self {
            Mix::Pings => 0,
            Mix::OctaveEcho { .. } => self.max_len(),
            Mix::FixedGlueEcho { len } => (16 * len).max(1 << 16),
        }
    }

    /// The largest echo argument, in elements.
    pub fn max_len(self) -> usize {
        match self {
            Mix::Pings => 0,
            Mix::OctaveEcho { min } => min << (OCTAVES - 1),
            Mix::FixedGlueEcho { len } => len,
        }
    }
}

/// Echo lengths of [`Mix::OctaveEcho`], one per power of two.
pub const OCTAVES: usize = 11;

/// A client's call stream.
pub struct OpGen {
    mix: Mix,
    rng: Rng,
    /// Octave order of the current block and the next position in it.
    octaves: [usize; OCTAVES],
    next: usize,
}

impl OpGen {
    /// The stream of client `client` under `seed`.
    pub fn new(mix: Mix, seed: u64, client: usize) -> Self {
        Self {
            mix,
            rng: Rng::for_client(seed, client),
            octaves: std::array::from_fn(|i| i),
            next: OCTAVES,
        }
    }

    /// The next octave, reshuffling the order at the start of each block.
    fn octave(&mut self) -> usize {
        if self.next == OCTAVES {
            for i in (1..OCTAVES).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.octaves.swap(i, j);
            }
            self.next = 0;
        }
        self.next += 1;
        self.octaves[self.next - 1]
    }

    /// The next call.
    pub fn next_op(&mut self) -> Op {
        let base = self.mix.base_len();
        match self.mix {
            Mix::Pings => {
                let pick = self.rng.below(10);
                let token = self.rng.next_u64();
                match pick {
                    0..=3 => Op::Ping { glue: false, token },
                    4..=7 => Op::Ping { glue: true, token },
                    _ => Op::Oneway { token },
                }
            }
            Mix::OctaveEcho { min } => {
                let len = min << self.octave();
                let offset = self.rng.below((base - len + 1) as u64) as usize;
                Op::Echo {
                    glue: false,
                    offset,
                    len,
                }
            }
            Mix::FixedGlueEcho { len } => {
                let offset = self.rng.below((base - len + 1) as u64) as usize;
                Op::Echo {
                    glue: true,
                    offset,
                    len,
                }
            }
        }
    }
}

/// The array echo arguments are cut from: `len` seeded values.
pub fn base_array(seed: u64, len: usize) -> Vec<i32> {
    let mut rng = Rng::new(seed ^ 0x6261_7365_6172_7261);
    (0..len).map(|_| rng.next_u64() as i32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(mix: Mix, seed: u64, client: usize, n: usize) -> Vec<Op> {
        let mut g = OpGen::new(mix, seed, client);
        (0..n).map(|_| g.next_op()).collect()
    }

    #[test]
    fn same_seed_same_calls() {
        for mix in [
            Mix::Pings,
            Mix::OctaveEcho { min: 1 << 10 },
            Mix::FixedGlueEcho { len: 4096 },
        ] {
            assert_eq!(ops(mix, 7, 0, 500), ops(mix, 7, 0, 500));
            assert_ne!(ops(mix, 7, 0, 500), ops(mix, 8, 0, 500), "seed must matter");
            assert_ne!(
                ops(mix, 7, 0, 500),
                ops(mix, 7, 1, 500),
                "clients draw apart"
            );
        }
        assert_eq!(base_array(3, 1000), base_array(3, 1000));
        assert_ne!(base_array(3, 1000), base_array(4, 1000));
    }

    #[test]
    fn ping_mix_matches_its_shares() {
        let mut counts = [0usize; 3];
        for op in ops(Mix::Pings, 1, 0, 100_000) {
            match op {
                Op::Ping { glue: false, .. } => counts[0] += 1,
                Op::Ping { glue: true, .. } => counts[1] += 1,
                Op::Oneway { .. } => counts[2] += 1,
                Op::Echo { .. } => unreachable!("the ping mix makes no echoes"),
            }
        }
        let share = |c: usize| c as f64 / 100_000.0;
        assert!((share(counts[0]) - 0.4).abs() < 0.01);
        assert!((share(counts[1]) - 0.4).abs() < 0.01);
        assert!((share(counts[2]) - 0.2).abs() < 0.01);
    }

    #[test]
    fn every_block_echoes_each_octave_once() {
        let mix = Mix::OctaveEcho { min: 1 << 10 };
        assert_eq!(mix.max_len(), 1 << 20);
        let lens: Vec<usize> = ops(mix, 5, 0, 50 * OCTAVES)
            .into_iter()
            .map(|op| {
                let Op::Echo { offset, len, glue } = op else {
                    panic!("echo mix")
                };
                assert!(!glue);
                assert!(offset + len <= mix.base_len());
                len
            })
            .collect();
        let all: Vec<usize> = (0..OCTAVES).map(|k| 1 << (10 + k)).collect();
        for block in lens.chunks(OCTAVES) {
            let mut sorted = block.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, all, "one call per octave per block");
        }
        assert_ne!(
            lens[..OCTAVES],
            lens[OCTAVES..2 * OCTAVES],
            "order is reshuffled"
        );
        for op in ops(Mix::FixedGlueEcho { len: 4096 }, 5, 1, 1000) {
            let Op::Echo { offset, len, glue } = op else {
                panic!("echo mix")
            };
            assert!(glue && len == 4096 && offset + len <= Mix::FixedGlueEcho { len }.base_len());
        }
    }
}
