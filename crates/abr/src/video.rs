//! EnvivioDash3-style video model: 48 chunks × 6 bitrate levels, ~4 s
//! chunks, VBR per-chunk size variation.
//!
//! Pensieve's testbed video (EnvivioDash3) is 193 s of H.264 encoded at
//! six average bitrates and sliced into 48 four-second chunks; the
//! per-chunk sizes vary around `bitrate × 4 s` because the encoder is
//! VBR. The real size table is not redistributable, so [`VideoModel::
//! envivio`] synthesizes one deterministically: a per-chunk complexity
//! factor (scenes differ in how hard they compress) shared across
//! levels, plus a small per-level jitter, with strict monotonicity in
//! bitrate enforced — a higher level never yields a smaller chunk.

use osa_nn::rng::Rng;

use crate::NUM_BITRATES;

/// The six encoding bitrates of EnvivioDash3, in kbit/s.
pub(crate) const BITRATES_KBPS: [u32; NUM_BITRATES] = [300, 750, 1200, 1850, 2850, 4300];

/// Number of chunks in the video (48 × 4 s ≈ 193 s).
pub const CHUNK_COUNT: usize = 48;

/// Chunk play duration in seconds.
pub(crate) const CHUNK_S: f64 = 4.0;

/// Fixed internal seed for the synthetic VBR table, so every build of
/// the workspace trains and evaluates against the identical video.
const VBR_SEED: u64 = 0xe1_71d3_0a5e;

/// Immutable chunk-size table plus the bitrate ladder.
#[derive(Clone, Debug, PartialEq)]
pub struct VideoModel {
    chunk_s: f64,
    /// `CHUNK_COUNT × NUM_BITRATES` chunk sizes in bytes, row-major by
    /// chunk index.
    sizes: Vec<f64>,
}

impl VideoModel {
    /// The workspace's standard synthetic EnvivioDash3 substitute.
    pub fn envivio() -> Self {
        let mut rng = Rng::seed_from_u64(VBR_SEED);
        let mut sizes = Vec::with_capacity(CHUNK_COUNT * NUM_BITRATES);
        for _ in 0..CHUNK_COUNT {
            // Scene complexity: shared across levels so the whole ladder
            // breathes together, like a real VBR encode.
            let scene = (rng.normal(1.0, 0.15) as f64).clamp(0.6, 1.5);
            let base = sizes.len();
            for (level, &kbps) in BITRATES_KBPS.iter().enumerate() {
                let jitter = (rng.normal(1.0, 0.05) as f64).clamp(0.85, 1.15);
                let nominal = kbps as f64 * 1000.0 / 8.0 * CHUNK_S;
                let mut size = nominal * scene * jitter;
                // A higher encoding bitrate must never produce a smaller
                // chunk, or the QoE ladder would invert.
                if level > 0 {
                    size = size.max(sizes[base + level - 1] * 1.05);
                }
                sizes.push(size);
            }
        }
        VideoModel {
            chunk_s: CHUNK_S,
            sizes,
        }
    }

    /// Exact constant-bitrate sizes (`kbps × 500` bytes per 4 s chunk),
    /// used by the hand-computed golden-value tests.
    pub fn constant_bitrate() -> Self {
        let mut sizes = Vec::with_capacity(CHUNK_COUNT * NUM_BITRATES);
        for _ in 0..CHUNK_COUNT {
            for &kbps in &BITRATES_KBPS {
                sizes.push(kbps as f64 * 1000.0 / 8.0 * CHUNK_S);
            }
        }
        VideoModel {
            chunk_s: CHUNK_S,
            sizes,
        }
    }

    /// Size in bytes of `chunk` encoded at bitrate `level`.
    pub fn size_bytes(&self, chunk: usize, level: usize) -> f64 {
        assert!(chunk < CHUNK_COUNT && level < NUM_BITRATES);
        self.sizes[chunk * NUM_BITRATES + level]
    }

    /// Number of chunks in the video.
    pub fn chunk_count(&self) -> usize {
        CHUNK_COUNT
    }

    /// Chunk play duration in seconds.
    pub(crate) fn chunk_s(&self) -> f64 {
        self.chunk_s
    }

    /// Encoding bitrate of `level` in Mbit/s — also the §3.1 linear QoE
    /// quality term `q(R)`.
    pub fn bitrate_mbps(&self, level: usize) -> f64 {
        BITRATES_KBPS[level] as f64 / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_ascending() {
        let mut prev = 0;
        for &b in &BITRATES_KBPS {
            assert!(b > prev);
            prev = b;
        }
    }

    #[test]
    fn sizes_are_strictly_monotone_in_bitrate() {
        let v = VideoModel::envivio();
        for c in 0..CHUNK_COUNT {
            for l in 1..NUM_BITRATES {
                assert!(
                    v.size_bytes(c, l) > v.size_bytes(c, l - 1),
                    "chunk {c}: level {l} not larger"
                );
            }
        }
    }

    #[test]
    fn vbr_sizes_track_nominal_within_encoder_bounds() {
        let v = VideoModel::envivio();
        for c in 0..CHUNK_COUNT {
            for (l, &kbps) in BITRATES_KBPS.iter().enumerate() {
                let nominal = kbps as f64 * 500.0;
                let ratio = v.size_bytes(c, l) / nominal;
                // scene ∈ [0.6, 1.5], jitter ∈ [0.85, 1.15], plus the
                // monotonicity fix-up's 5% bumps.
                assert!(
                    (0.5..=1.9).contains(&ratio),
                    "chunk {c} level {l}: ratio {ratio}"
                );
            }
        }
        // ...and the table is actually VBR, not constant.
        let first = v.size_bytes(0, 0);
        assert!((0..CHUNK_COUNT).any(|c| (v.size_bytes(c, 0) - first).abs() > 1.0));
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(VideoModel::envivio(), VideoModel::envivio());
    }

    #[test]
    fn constant_bitrate_sizes_are_exact() {
        let v = VideoModel::constant_bitrate();
        assert_eq!(v.size_bytes(0, 0), 150_000.0); // 300 kbps × 4 s / 8
        assert_eq!(v.size_bytes(47, 5), 2_150_000.0); // 4300 kbps
    }
}
