//! Rotating-parity geometry for the striped store: RAID-5-style
//! single-fault redundancy over the *unchanged* stripe→node mapping.
//!
//! [`StripedStore`](crate::StripedStore) assigns data stripe `g` to
//! node `g % K`. A parity **group** is `K-1` consecutive data stripes
//! `[j*(K-1), (j+1)*(K-1))`; because `K-1` consecutive stripe indices
//! occupy `K-1` *distinct* consecutive nodes mod `K`, every group
//! misses exactly one node — `K-1-(j % K)` — and that is where its
//! parity chunk lives. The parity placement therefore rotates across
//! nodes with period `K` without touching the data layout, so all
//! existing traffic accounting (which is a pure function of the data
//! mapping) is unchanged when parity is off, and the parity lane rides
//! alongside as separate per-node part stores.
//!
//! Parity is bitwise XOR over the IEEE-754 bit patterns of the `f64`
//! elements ([`xor_into`]) — copy-only, never float arithmetic — so a
//! reconstructed chunk is **bit-equal** to the lost one, including
//! NaN payloads and signed zeros. Tail data chunks shorter than the
//! stripe unit are implicitly zero-padded (XOR with zero bits is the
//! identity), so every parity chunk is a full stripe long.

/// The parity geometry of one striped store: node count, stripe unit,
/// and logical length. All methods are pure functions of these three.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParityLayout {
    /// I/O node count `K` (must be ≥ 2; `K = 2` degenerates to
    /// mirroring).
    pub nodes: usize,
    /// Stripe unit in elements.
    pub stripe_elems: u64,
    /// Logical store length in elements.
    pub len: u64,
}

impl ParityLayout {
    /// A layout over `nodes` nodes.
    ///
    /// # Panics
    /// Panics on fewer than two nodes (no peer to hold parity) or a
    /// zero stripe unit.
    #[must_use]
    pub fn new(nodes: usize, stripe_elems: u64, len: u64) -> Self {
        assert!(nodes >= 2, "parity needs at least two I/O nodes");
        assert!(stripe_elems > 0, "stripe unit must be positive");
        ParityLayout {
            nodes,
            stripe_elems,
            len,
        }
    }

    /// Data stripes per parity group (`K-1`).
    #[must_use]
    fn group_width(&self) -> u64 {
        self.nodes as u64 - 1
    }

    /// Number of data stripes (the last may be partial).
    #[must_use]
    pub fn data_stripes(&self) -> u64 {
        self.len.div_ceil(self.stripe_elems)
    }

    /// Number of parity groups.
    #[must_use]
    pub fn groups(&self) -> u64 {
        self.data_stripes().div_ceil(self.group_width())
    }

    /// The parity group of data stripe `g`.
    #[must_use]
    pub fn group_of(&self, g: u64) -> u64 {
        g / self.group_width()
    }

    /// The data stripes of group `j` (clamped at the store tail).
    #[must_use]
    pub fn stripes_of_group(&self, j: u64) -> std::ops::Range<u64> {
        let lo = j * self.group_width();
        let hi = ((j + 1) * self.group_width()).min(self.data_stripes());
        lo..hi
    }

    /// The node holding group `j`'s parity chunk: the one node of
    /// `0..K` that holds none of the group's data stripes.
    #[must_use]
    pub fn parity_node(&self, j: u64) -> usize {
        let k = self.nodes as u64;
        usize::try_from(k - 1 - (j % k)).expect("node index fits usize")
    }

    /// Element offset of group `j`'s parity chunk inside its node's
    /// parity part store. Groups land on a node in increasing order
    /// with period `K`, so group `j` is that node's `j / K`-th chunk.
    #[must_use]
    pub fn parity_part_offset(&self, j: u64) -> u64 {
        (j / self.nodes as u64) * self.stripe_elems
    }

    /// Length of node `m`'s parity part store: one full stripe per
    /// group whose parity lands there.
    #[must_use]
    pub fn parity_part_len(&self, m: usize) -> u64 {
        let k = self.nodes as u64;
        let g = self.groups();
        // parity_node(j) == m  ⇔  j % K == K-1-m.
        let residue = k - 1 - m as u64;
        let count = g / k + u64::from(g % k > residue);
        count * self.stripe_elems
    }

    /// The node holding data stripe `g` (the store's data mapping).
    #[must_use]
    pub fn data_node(&self, g: u64) -> usize {
        usize::try_from(g % self.nodes as u64).expect("node index fits usize")
    }

    /// Element offset of data stripe `g` inside its node's data part.
    #[must_use]
    pub fn data_part_offset(&self, g: u64) -> u64 {
        (g / self.nodes as u64) * self.stripe_elems
    }

    /// Valid length of data stripe `g` (shorter at the store tail).
    #[must_use]
    pub fn stripe_len(&self, g: u64) -> u64 {
        self.stripe_elems.min(self.len - g * self.stripe_elems)
    }
}

/// XORs `src`'s IEEE-754 bit patterns into `acc` element-wise. `src`
/// may be shorter than `acc` (a tail chunk): missing elements are
/// zero bits, i.e. left as-is.
///
/// # Panics
/// Panics when `src` is longer than `acc`.
pub fn xor_into(acc: &mut [f64], src: &[f64]) {
    assert!(src.len() <= acc.len(), "xor source longer than accumulator");
    for (a, s) in acc.iter_mut().zip(src) {
        *a = f64::from_bits(a.to_bits() ^ s.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parity_node_is_disjoint_from_the_groups_data_nodes() {
        for nodes in 2..=9usize {
            let lay = ParityLayout::new(nodes, 4, 4 * 40 * nodes as u64);
            for j in 0..lay.groups() {
                let p = lay.parity_node(j);
                let data: Vec<usize> = lay.stripes_of_group(j).map(|g| lay.data_node(g)).collect();
                assert!(
                    !data.contains(&p),
                    "K={nodes} group {j}: parity node {p} collides with data nodes {data:?}"
                );
                // The group's data stripes sit on K-1 distinct nodes.
                let mut uniq = data.clone();
                uniq.sort_unstable();
                uniq.dedup();
                assert_eq!(uniq.len(), data.len(), "K={nodes} group {j}");
            }
        }
    }

    #[test]
    fn parity_rotates_across_nodes() {
        let lay = ParityLayout::new(4, 8, 8 * 24);
        let nodes: Vec<usize> = (0..8).map(|j| lay.parity_node(j)).collect();
        assert_eq!(nodes, vec![3, 2, 1, 0, 3, 2, 1, 0]);
    }

    #[test]
    fn parity_part_lengths_cover_every_group_once() {
        for (nodes, stripe, len) in [(4usize, 8u64, 100u64), (3, 4, 50), (2, 8, 64), (5, 3, 31)] {
            let lay = ParityLayout::new(nodes, stripe, len);
            let total: u64 = (0..nodes).map(|m| lay.parity_part_len(m)).sum();
            assert_eq!(
                total,
                lay.groups() * stripe,
                "K={nodes} stripe={stripe} len={len}"
            );
            // Offsets within each node are dense and in group order.
            for m in 0..nodes {
                let mine: Vec<u64> = (0..lay.groups())
                    .filter(|&j| lay.parity_node(j) == m)
                    .map(|j| lay.parity_part_offset(j))
                    .collect();
                let expect: Vec<u64> = (0..mine.len() as u64).map(|i| i * stripe).collect();
                assert_eq!(mine, expect, "node {m} parity chunks dense");
            }
        }
    }

    #[test]
    fn xor_reconstructs_any_single_chunk() {
        // Three data chunks of differing lengths plus parity: dropping
        // any one chunk and XOR-ing the rest restores it bit-exactly.
        let chunks: Vec<Vec<f64>> = vec![
            vec![1.5, -0.0, f64::NAN, 7.25],
            vec![2.0_f64.powi(60), 3.0, -9.75],
            vec![0.0, f64::INFINITY],
        ];
        let stripe = 4usize;
        let mut parity = vec![0.0; stripe];
        for c in &chunks {
            xor_into(&mut parity, c);
        }
        for lost in 0..chunks.len() {
            let mut rebuilt = vec![0.0; stripe];
            xor_into(&mut rebuilt, &parity);
            for (i, c) in chunks.iter().enumerate() {
                if i != lost {
                    xor_into(&mut rebuilt, c);
                }
            }
            let want = &chunks[lost];
            for (a, b) in rebuilt[..want.len()].iter().zip(want) {
                assert_eq!(a.to_bits(), b.to_bits(), "chunk {lost} reconstructs");
            }
            // Padding beyond the lost chunk's length is all zero bits.
            for a in &rebuilt[want.len()..] {
                assert_eq!(a.to_bits(), 0);
            }
        }
    }

    #[test]
    fn stripe_len_handles_the_tail() {
        let lay = ParityLayout::new(4, 8, 20);
        assert_eq!(lay.data_stripes(), 3);
        assert_eq!(lay.stripe_len(0), 8);
        assert_eq!(lay.stripe_len(1), 8);
        assert_eq!(lay.stripe_len(2), 4);
        assert_eq!(lay.groups(), 1);
        assert_eq!(lay.stripes_of_group(0), 0..3);
    }
}
