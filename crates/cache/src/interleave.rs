//! Low-order interleaving over `n` units: which unit a line or PC lands
//! on, and its index within that unit.

/// Division by a unit count, for interleaving lines across L2 banks and
/// PCs and lines across Slices: a shift and a mask when the count is a
/// power of two, a divide otherwise.
#[derive(Clone, Copy, Debug)]
pub struct Interleave {
    n: u64,
    /// `log2(n)` when `n` is a power of two.
    shift: Option<u32>,
}

impl Interleave {
    /// Interleaving over `n` units. A zero count is allowed, but then
    /// [`Interleave::unit_of`] and [`Interleave::local`] must not be called.
    #[must_use]
    pub fn new(n: usize) -> Self {
        let n = n as u64;
        Interleave {
            n,
            shift: n.is_power_of_two().then(|| n.trailing_zeros()),
        }
    }

    /// `x % n`: the unit `x` lands on.
    #[inline]
    #[must_use]
    pub fn unit_of(self, x: u64) -> u64 {
        match self.shift {
            Some(_) => x & (self.n - 1),
            None => x % self.n,
        }
    }

    /// `x / n`: `x`'s index within its unit, interleave bits stripped.
    #[inline]
    #[must_use]
    pub fn local(self, x: u64) -> u64 {
        match self.shift {
            Some(k) => x >> k,
            None => x / self.n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_matches_division_for_every_slice_count() {
        // 1 to `sharing_core::config::MAX_SLICES`.
        for n in 1..=8 {
            let il = Interleave::new(n);
            for x in (0..4_096u64).chain([u64::MAX - 9, u64::MAX]) {
                assert_eq!(il.unit_of(x), x % n as u64, "{x} % {n}");
                assert_eq!(il.local(x), x / n as u64, "{x} / {n}");
            }
        }
    }
}
