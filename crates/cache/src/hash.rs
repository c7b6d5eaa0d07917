//! A cheap hasher for the simulator's `u64`-keyed maps.

use std::hash::{BuildHasherDefault, Hasher};

/// `BuildHasher` for maps keyed by line numbers or addresses (the
/// coherence directory, the engine's store-forwarding map): one
/// `splitmix64` finalization instead of SipHash's full permutation.
/// Safe for byte-identity wherever map iteration order is never
/// observable — lookups and inserts are by key, and any iteration
/// (`retain`) decides per entry.
pub type LineHashBuilder = BuildHasherDefault<SplitMix64>;

/// The `splitmix64` finalizer as a [`Hasher`] for fixed-width keys.
#[derive(Clone, Copy, Debug, Default)]
pub struct SplitMix64 {
    state: u64,
}

impl Hasher for SplitMix64 {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-fixed-width keys; the callers only hash u64s.
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let mut z = self.state ^ n;
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.state = z ^ (z >> 31);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_hashes_u64s_like_its_byte_stream() {
        let mut a = SplitMix64::default();
        a.write_u64(0xDEAD_BEEF);
        let mut b = SplitMix64::default();
        b.write(&0xDEAD_BEEFu64.to_le_bytes());
        assert_eq!(a.finish(), b.finish());
        assert_ne!(a.finish(), 0);
    }
}
