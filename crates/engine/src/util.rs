//! Arithmetic helpers for geometry calculations, and the bit-mask walk
//! the activity masks share.

/// Ceiling division: the smallest `q` with `q * b >= a`.
///
/// # Examples
///
/// ```
/// use miopt_engine::util::ceil_div;
///
/// assert_eq!(ceil_div(10, 4), 3);
/// assert_eq!(ceil_div(8, 4), 2);
/// assert_eq!(ceil_div(0, 4), 0);
/// ```
///
/// # Panics
///
/// Panics if `b` is zero.
#[must_use]
pub fn ceil_div(a: u64, b: u64) -> u64 {
    assert!(b != 0, "division by zero");
    a.div_ceil(b)
}

/// Whether `x` is a power of two (zero is not).
///
/// # Examples
///
/// ```
/// use miopt_engine::util::is_pow2;
///
/// assert!(is_pow2(64));
/// assert!(!is_pow2(0));
/// assert!(!is_pow2(12));
/// ```
#[must_use]
#[inline]
pub fn is_pow2(x: u64) -> bool {
    x != 0 && x & (x - 1) == 0
}

/// Base-2 logarithm of a power of two.
///
/// # Examples
///
/// ```
/// use miopt_engine::util::log2;
///
/// assert_eq!(log2(64), 6);
/// ```
///
/// # Panics
///
/// Panics if `x` is not a power of two.
#[must_use]
#[inline]
pub fn log2(x: u64) -> u32 {
    assert!(is_pow2(x), "log2 requires a power of two, got {x}");
    x.trailing_zeros()
}

/// The set bits of `m`, lowest first.
///
/// # Examples
///
/// ```
/// use miopt_engine::util::bits;
///
/// assert_eq!(bits(0b1010_0001).collect::<Vec<_>>(), [0, 5, 7]);
/// ```
#[inline]
pub fn bits(mut m: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if m == 0 {
            return None;
        }
        let i = m.trailing_zeros() as usize;
        m &= m - 1;
        Some(i)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_div_rounds_up() {
        assert_eq!(ceil_div(1, 64), 1);
        assert_eq!(ceil_div(64, 64), 1);
        assert_eq!(ceil_div(65, 64), 2);
    }

    #[test]
    fn pow2_detection() {
        for i in 0..63 {
            assert!(is_pow2(1u64 << i));
        }
        assert!(!is_pow2(0));
        assert!(!is_pow2(3));
        assert!(!is_pow2(6));
    }

    #[test]
    fn log2_inverts_shift() {
        for i in 0..63u32 {
            assert_eq!(log2(1u64 << i), i);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn log2_rejects_non_pow2() {
        let _ = log2(5);
    }
}
