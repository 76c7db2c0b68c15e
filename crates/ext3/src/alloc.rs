//! Bitmap primitives for block and inode allocation.

/// Tests bit `i` of a bitmap block.
pub(crate) fn test_bit(bitmap: &[u8], i: usize) -> bool {
    bitmap[i / 8] & (1 << (i % 8)) != 0
}

/// Sets bit `i`; returns the previous value.
pub(crate) fn set_bit(bitmap: &mut [u8], i: usize) -> bool {
    let was = test_bit(bitmap, i);
    bitmap[i / 8] |= 1 << (i % 8);
    was
}

/// Clears bit `i`; returns the previous value.
pub(crate) fn clear_bit(bitmap: &mut [u8], i: usize) -> bool {
    let was = test_bit(bitmap, i);
    bitmap[i / 8] &= !(1 << (i % 8));
    was
}

/// Finds the first zero bit in `[start, limit)`, preferring `start`
/// onward then wrapping to the beginning (allocation-locality hint).
pub(crate) fn find_zero(bitmap: &[u8], start: usize, limit: usize) -> Option<usize> {
    debug_assert!(limit <= bitmap.len() * 8);
    let probe = |range: std::ops::Range<usize>| {
        for i in range {
            // Skip whole bytes of ones quickly.
            if i % 8 == 0 && i + 8 <= limit && bitmap[i / 8] == 0xFF {
                continue;
            }
            if !test_bit(bitmap, i) {
                return Some(i);
            }
        }
        None
    };
    probe(start.min(limit)..limit).or_else(|| probe(0..start.min(limit)))
}

/// Counts zero bits in `[0, limit)`.
pub(crate) fn count_zeros(bitmap: &[u8], limit: usize) -> usize {
    (0..limit).filter(|&i| !test_bit(bitmap, i)).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clear_test() {
        let mut b = vec![0u8; 4];
        assert!(!set_bit(&mut b, 5));
        assert!(test_bit(&b, 5));
        assert!(set_bit(&mut b, 5));
        assert!(clear_bit(&mut b, 5));
        assert!(!test_bit(&b, 5));
        assert!(!clear_bit(&mut b, 5));
    }

    #[test]
    fn find_zero_respects_hint_and_wraps() {
        let mut b = vec![0u8; 2]; // 16 bits
        for i in 0..16 {
            set_bit(&mut b, i);
        }
        clear_bit(&mut b, 3);
        clear_bit(&mut b, 12);
        assert_eq!(find_zero(&b, 10, 16), Some(12));
        assert_eq!(find_zero(&b, 13, 16), Some(3), "wraps to the front");
        set_bit(&mut b, 3);
        set_bit(&mut b, 12);
        assert_eq!(find_zero(&b, 0, 16), None);
    }

    #[test]
    fn find_zero_honours_limit() {
        let b = vec![0u8; 2];
        // All zero but the limit fences the search.
        assert_eq!(find_zero(&b, 0, 1), Some(0));
        // Start beyond the limit still wraps to the front.
        assert_eq!(find_zero(&b, 5, 5), Some(0));
        assert_eq!(find_zero(&[0xFFu8; 2], 5, 5), None);
    }

    #[test]
    fn fast_path_skips_full_bytes() {
        let mut b = vec![0xFFu8; 128];
        b[100] = 0b1111_0111;
        assert_eq!(find_zero(&b, 0, 1024), Some(803));
    }

    #[test]
    fn count_zeros_counts() {
        let mut b = vec![0u8; 2];
        set_bit(&mut b, 0);
        set_bit(&mut b, 9);
        assert_eq!(count_zeros(&b, 16), 14);
        assert_eq!(count_zeros(&b, 8), 7);
    }
}
