//! The bulk numeric-array codecs (`put_words`/`get_words`) against a
//! per-element reference: the bytes must be exactly what a loop of
//! `put_i32`/`put_f64`/… writes, decoding must give back the same bits, and
//! bad input must fail before anything is sized from it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ohpc_xdr::{decode_from_slice, encode_to_vec, XdrError, XdrReader, XdrWriter};
use proptest::prelude::*;

/// Records the largest single allocation made on the current thread, so a
/// test can check that a decoder sized nothing from a lying prefix.
struct LargestAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST.try_with(|m| m.set(m.get().max(layout.size())));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = LARGEST.try_with(|m| m.set(m.get().max(new_size)));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

/// Runs `f` and returns its result with the largest allocation it made.
fn largest_alloc_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|m| m.set(0));
    let out = f();
    (out, LARGEST.with(|m| m.get()))
}

/// Bits of a float, for bit-exact comparison (NaN payloads, −0.0).
trait Bits {
    fn bits(&self) -> u64;
}
macro_rules! bits_as_int {
    ($($t:ty),+) => {$(impl Bits for $t { fn bits(&self) -> u64 { *self as u64 } })+};
}
bits_as_int!(i32, u32, i64, u64);
impl Bits for f32 {
    fn bits(&self) -> u64 {
        u64::from(self.to_bits())
    }
}
impl Bits for f64 {
    fn bits(&self) -> u64 {
        self.to_bits()
    }
}

fn bits<T: Bits>(v: &[T]) -> Vec<u64> {
    v.iter().map(Bits::bits).collect()
}

/// Floats with the awkward bit patterns drawn often: quiet and signalling
/// NaNs with payloads, both zeros, infinities, subnormals.
fn f32s() -> impl Strategy<Value = f32> {
    prop_oneof![
        Just(f32::NAN),
        Just(f32::from_bits(0x7fa0_0001)),
        Just(f32::from_bits(0xffc0_1234)),
        Just(-0.0f32),
        Just(0.0f32),
        Just(f32::INFINITY),
        Just(f32::NEG_INFINITY),
        Just(f32::from_bits(1)),
        any::<f32>(),
        any::<f32>(),
    ]
}

fn f64s() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(f64::from_bits(0x7ff0_0000_0000_0001)),
        Just(f64::from_bits(0xfff8_dead_beef_0000)),
        Just(-0.0f64),
        Just(0.0f64),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::from_bits(1)),
        any::<f64>(),
        any::<f64>(),
    ]
}

/// Lengths 0, 1 and odd counts come up in every run, not just by luck.
const FIXED_LENGTHS: [usize; 6] = [0, 1, 2, 3, 7, 33];

macro_rules! bulk_codec_suite {
    ($mod:ident, $t:ty, $put:ident, $get:ident, $width:expr, $strat:expr) => {
        mod $mod {
            use super::*;

            /// The per-element reference encoder: what the codec wrote
            /// before it went bulk.
            fn reference_encode(v: &[$t]) -> Vec<u8> {
                let mut w = XdrWriter::new();
                w.put_array_len(v.len());
                for &x in v {
                    w.$put(x);
                }
                w.finish().to_vec()
            }

            /// The per-element reference decoder.
            fn reference_decode(buf: &[u8]) -> Result<Vec<$t>, XdrError> {
                let mut r = XdrReader::new(buf);
                let n = r.get_array_len()?;
                let mut out = Vec::new();
                for _ in 0..n {
                    out.push(r.$get()?);
                }
                Ok(out)
            }

            fn check(v: &Vec<$t>) -> Result<(), TestCaseError> {
                let bulk = encode_to_vec(v);
                prop_assert_eq!(bulk.len(), 4 + $width * v.len());
                prop_assert_eq!(&bulk, &reference_encode(v));
                let back: Vec<$t> = decode_from_slice(&bulk).unwrap();
                prop_assert_eq!(bits(&back), bits(v));
                let by_element = reference_decode(&bulk).unwrap();
                prop_assert_eq!(bits(&by_element), bits(v));
                Ok(())
            }

            #[test]
            fn fixed_lengths_match_the_reference() {
                for n in FIXED_LENGTHS {
                    let mut rng = proptest::test_runner::TestRng::from_seed(n as u64);
                    let v: Vec<$t> = (0..n).map(|_| $strat.generate(&mut rng)).collect();
                    check(&v).unwrap();
                }
            }

            proptest! {
                #[test]
                fn bulk_bytes_equal_the_per_element_encoding(
                    v in proptest::collection::vec($strat, 0..67)
                ) {
                    check(&v)?;
                }

                #[test]
                fn truncated_runs_are_truncated_errors(
                    v in proptest::collection::vec($strat, 1..40),
                    cut in 1usize..9
                ) {
                    let buf = encode_to_vec(&v);
                    let cut = cut.min(buf.len() - 4);
                    let err = decode_from_slice::<Vec<$t>>(&buf[..buf.len() - cut]).unwrap_err();
                    prop_assert!(matches!(err, XdrError::Truncated { .. }), "{err:?}");
                }
            }

            #[test]
            fn lying_prefixes_fail_before_allocating() {
                // Claims far more elements than the frame carries, under
                // the length limit: Truncated, and nothing sized from it.
                let mut w = XdrWriter::new();
                w.put_u32(1 << 24);
                w.put_words(&[0u32; 8], u32::to_be_bytes);
                let buf = w.finish();
                let (res, largest) = largest_alloc_of(|| decode_from_slice::<Vec<$t>>(&buf));
                assert!(matches!(res, Err(XdrError::Truncated { .. })), "{res:?}");
                assert!(largest < 1024, "allocated {largest} bytes for a lying prefix");

                // Over the length limit: LengthOverflow, again before any
                // allocation.
                let buf = encode_to_vec(&u32::MAX);
                let (res, largest) = largest_alloc_of(|| decode_from_slice::<Vec<$t>>(&buf));
                assert!(matches!(res, Err(XdrError::LengthOverflow { .. })), "{res:?}");
                assert!(largest < 1024, "allocated {largest} bytes for an oversize prefix");
            }
        }
    };
}

bulk_codec_suite!(i32s, i32, put_i32, get_i32, 4, any::<i32>());
bulk_codec_suite!(u32s, u32, put_u32, get_u32, 4, any::<u32>());
bulk_codec_suite!(i64s, i64, put_i64, get_i64, 8, any::<i64>());
bulk_codec_suite!(u64s, u64, put_u64, get_u64, 8, any::<u64>());
bulk_codec_suite!(f32s_, f32, put_f32, get_f32, 4, f32s());
bulk_codec_suite!(f64s_, f64, put_f64, get_f64, 8, f64s());

#[test]
fn hyper_arrays_need_two_words_per_element() {
    // Four words of payload satisfy a 4-element prefix for i32 but only two
    // hypers: a 4-hyper claim must be Truncated, not read past the end.
    let mut w = XdrWriter::new();
    w.put_u32(4);
    w.put_words(&[1u32, 2, 3, 4], u32::to_be_bytes);
    let buf = w.finish();
    assert_eq!(decode_from_slice::<Vec<i32>>(&buf).unwrap(), vec![1, 2, 3, 4]);
    assert!(matches!(
        decode_from_slice::<Vec<u64>>(&buf).unwrap_err(),
        XdrError::Truncated { needed: 32, available: 16 }
    ));
}
