//! Seeded inputs and the independent reference result.
//!
//! `--seed` fixes the array contents and the order of the variants;
//! the program under test only ever sees the generated values.

use ooc_ir::{ArrayId, Memory, Program};

/// SplitMix64: small, seedable, and good enough to shuffle a handful
/// of items.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded value of element `idx` of array `a`: a multiple of 1/64
/// in `[1, 17)`, so sums and products of a few of them are exact.
#[must_use]
pub fn init_value(seed: u64, a: ArrayId, idx: &[i64]) -> f64 {
    let mut h = mix(seed ^ (a.0 as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    for &x in idx {
        h = mix(h ^ x as u64);
    }
    (h % 1024) as f64 / 64.0 + 1.0
}

/// Every array of `program` seeded with [`init_value`], in canonical
/// row-major order (1-based subscripts, last fastest).
#[must_use]
pub fn seeded_memory(program: &Program, params: &[i64], seed: u64) -> Memory {
    let mut mem = Memory::for_program(program, params);
    for (a, decl) in program.arrays.iter().enumerate() {
        let dims: Vec<i64> = decl.dims.iter().map(|d| d.resolve(params)).collect();
        let mut idx = vec![1i64; dims.len()];
        for slot in mem.array_data_mut(ArrayId(a)).iter_mut() {
            *slot = init_value(seed, ArrayId(a), &idx);
            for d in (0..dims.len()).rev() {
                idx[d] += 1;
                if idx[d] <= dims[d] {
                    break;
                }
                idx[d] = 1;
            }
        }
    }
    mem
}

/// The reference result: the *original* program run by the IR
/// interpreter (`ooc_ir::execute_program`) on the seeded inputs. It
/// never goes through the optimizer, the tiler or the runtime, so it
/// is independent of everything the benchmark measures.
#[must_use]
pub fn reference(program: &Program, params: &[i64], seed: u64) -> Vec<Vec<f64>> {
    let mut mem = seeded_memory(program, params, seed);
    ooc_ir::execute_program(program, &mut mem);
    (0..program.arrays.len())
        .map(|a| mem.array_data(ArrayId(a)).to_vec())
        .collect()
}

/// Bit-for-bit equality of two sets of arrays.
#[must_use]
pub fn bits_equal(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = init_value(7, ArrayId(1), &[3, 4]);
        assert_eq!(a, init_value(7, ArrayId(1), &[3, 4]));
        assert_ne!(a, init_value(8, ArrayId(1), &[3, 4]));
        assert!((1.0..17.0).contains(&a));
        let mut r1 = Rng::new(5);
        let mut r2 = Rng::new(5);
        let (mut v1, mut v2) = ([1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6]);
        r1.shuffle(&mut v1);
        r2.shuffle(&mut v2);
        assert_eq!(v1, v2);
    }
}
