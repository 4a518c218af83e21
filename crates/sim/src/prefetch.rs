//! Software prefetch: start a cache miss now, use the data later.
//!
//! The event loop knows the next arrival's row one pop ahead of running
//! it ([`RadixQueue::peek_radix`](crate::RadixQueue::peek_radix)), and
//! that row is almost always cold: a leaf fires about once per simulated
//! second. A plain load of it — even one whose value goes nowhere —
//! occupies a load-buffer slot and retires only when its data arrives,
//! so the out-of-order window fills up behind it and the loop stalls
//! anyway. A prefetch instruction retires at once and lets the miss run
//! under the events in between.
//!
//! [`prefetch`] is a hint: it changes no value and cannot fault, so
//! nothing a simulation computes can depend on it. It holds the one
//! `unsafe` block under `crates/` (see the crate docs).

/// Bytes per cache line on every target this crate prefetches for.
const LINE: usize = 64;

/// The cache lines `data` occupies, as line numbers (address ÷
/// [`LINE`]): from the line of its first byte through the line of its
/// last. Empty for a zero-sized value.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
fn lines<T: ?Sized>(data: &T) -> std::ops::Range<usize> {
    let start = data as *const T as *const u8 as usize;
    match std::mem::size_of_val(data) {
        0 => start / LINE..start / LINE,
        bytes => start / LINE..(start + bytes - 1) / LINE + 1,
    }
}

/// Asks the CPU to pull every cache line `data` spans into L1, and
/// returns without waiting for any of them. Takes a reference or a
/// slice (`prefetch(&cells[i])`, `prefetch(&keys[..n])`); issues nothing
/// for a zero-sized value. On targets other than `x86_64` it is a
/// no-op.
#[inline(always)]
#[allow(unsafe_code)]
pub fn prefetch<T: ?Sized>(data: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let first = data as *const T as *const i8;
        for i in 0..lines(data).len() {
            // Line `i` of the span: `first` keeps its offset within a
            // line, so each step lands in the next line.
            let p = first.wrapping_add(i * LINE);
            // SAFETY: `prefetch` is a hint. It reads no value into the
            // program, writes nothing and cannot fault, whatever the
            // address; the addresses all lie in lines of a live
            // reference anyway. SSE, which the intrinsic's
            // `#[target_feature]` names, is part of the x86_64 baseline.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(p) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = data;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_empty_slice_spans_no_line() {
        let empty: &[u128] = &[];
        assert!(lines(empty).is_empty());
        prefetch(empty);
        let v: Vec<u64> = Vec::new();
        assert!(lines(&v[..]).is_empty());
        prefetch(&v[..]);
    }

    #[test]
    fn a_zero_sized_value_spans_no_line() {
        assert!(lines(&()).is_empty());
        assert!(lines(&[(); 1000][..]).is_empty());
        prefetch(&());
        prefetch(&[(); 1000][..]);
    }

    #[test]
    fn a_slice_straddling_lines_spans_each_of_them() {
        #[repr(align(64))]
        struct Lines([u8; 4 * LINE]);
        let buf = Lines([0; 4 * LINE]);
        let base = buf.0.as_ptr() as usize / LINE;
        // One byte: one line. A line's worth from its start: one line.
        assert_eq!(lines(&buf.0[5]), base..base + 1);
        assert_eq!(lines(&buf.0[..LINE]), base..base + 1);
        // Two bytes across a boundary: both lines.
        assert_eq!(lines(&buf.0[LINE - 1..LINE + 1]), base..base + 2);
        // Two lines' worth from mid-line touch three lines, not two.
        assert_eq!(lines(&buf.0[40..40 + 2 * LINE]), base..base + 3);
        assert_eq!(lines(&buf.0[..]), base..base + 4);
        prefetch(&buf.0[LINE - 1..3 * LINE + 1]);
    }

    #[test]
    fn a_vecs_last_element_stays_inside_the_allocation() {
        let v: Vec<u128> = (0..1001).collect();
        let last = v.last().expect("non-empty");
        let span = lines(last);
        let end = v.as_ptr_range().end as usize;
        // Every line named holds a byte of the element, the last one
        // the allocation's final byte.
        assert_eq!(span.end, (end - 1) / LINE + 1);
        assert!(span.len() == 1 || span.len() == 2);
        prefetch(last);
        prefetch(&v[990..]);
        assert_eq!(v[1000], 1000, "a prefetch changes nothing");
    }
}
