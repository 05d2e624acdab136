//! The default-seed fidelity envelope: replay hash and fidelity figures
//! of each workload at seed 42. A run on the default seed must reproduce
//! the hash; the figures let a change that trades fidelity for speed show
//! how far it moved them.

/// The seed the envelope was recorded at.
pub const DEFAULT_SEED: u64 = 42;

/// One workload's recorded default-seed result.
#[derive(Debug, Clone, Copy)]
pub struct Envelope {
    /// Workload name.
    pub workload: &'static str,
    /// FNV-1a over the scenarios' replay hashes, in scenario order.
    pub hash: u64,
    /// `steady_ratio` at the default seed.
    pub steady_ratio: f64,
    /// `iter_p90_ratio` at the default seed.
    pub iter_p90_ratio: f64,
    /// `workload.reinterleave_iters` at the default seed.
    pub reinterleave_iters: u64,
}

/// The recorded envelopes.
pub const ENVELOPES: [Envelope; 3] = [
    Envelope {
        workload: "gpt2x6_mltcp",
        hash: 0x1fbc_2079_4bea_14fd,
        steady_ratio: 1.1241740037037038,
        iter_p90_ratio: 1.385376888888889,
        reinterleave_iters: 0,
    },
    Envelope {
        workload: "fig2_faults_metrics",
        hash: 0x9fb4_db7f_8e4b_10df,
        steady_ratio: 1.1147120680555556,
        iter_p90_ratio: 1.6245147500000001,
        reinterleave_iters: 21,
    },
    Envelope {
        workload: "cassini_sweep",
        hash: 0xf5cf_966b_4421_d0d1,
        steady_ratio: 1.0409527376388894,
        iter_p90_ratio: 1.1172918333333333,
        reinterleave_iters: 0,
    },
];

/// FNV-1a over a sequence of scenario hashes.
pub fn combine(hashes: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in hashes {
        for byte in x.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x1_0000_01b3);
        }
    }
    h
}
