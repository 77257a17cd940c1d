//! Memory budgeting for out-of-core execution.
//!
//! The paper fixes the in-core memory available to a computation at
//! **1/128 of the total out-of-core data size** and divides it evenly
//! among the arrays accessed by a nest. This module provides that
//! arithmetic plus a small allocator that asserts tile working sets
//! stay inside the budget during execution.

/// The memory budget of an out-of-core computation, in elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryBudget {
    capacity: u64,
    in_use: u64,
}

/// Error returned when an allocation would exceed the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// Elements requested.
    pub requested: u64,
    /// Elements available.
    pub available: u64,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "memory budget exceeded: requested {} elements, {} available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for BudgetExceeded {}

impl MemoryBudget {
    /// A budget of `capacity` elements.
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        MemoryBudget {
            capacity,
            in_use: 0,
        }
    }

    /// The paper's rule: memory = `total_elements / fraction` (fraction
    /// 128 in the experiments).
    #[must_use]
    pub fn paper_fraction(total_elements: u64, fraction: u64) -> Self {
        MemoryBudget::new((total_elements / fraction).max(1))
    }

    /// Total capacity in elements.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Elements currently allocated.
    #[must_use]
    pub fn in_use(&self) -> u64 {
        self.in_use
    }

    /// Elements still available.
    #[must_use]
    fn available(&self) -> u64 {
        self.capacity - self.in_use
    }

    /// Allocates `n` elements.
    ///
    /// # Errors
    /// Fails if the allocation exceeds capacity.
    pub fn alloc(&mut self, n: u64) -> Result<(), BudgetExceeded> {
        if n > self.available() {
            return Err(BudgetExceeded {
                requested: n,
                available: self.available(),
            });
        }
        self.in_use += n;
        Ok(())
    }

    /// Releases `n` elements.
    ///
    /// # Panics
    /// Panics on releasing more than is allocated (a runtime bug).
    pub fn free(&mut self, n: u64) {
        assert!(
            n <= self.in_use,
            "freeing {n} with only {} in use",
            self.in_use
        );
        self.in_use -= n;
    }

    /// Evenly splits the capacity across `arrays` concurrently resident
    /// tiles (the paper's per-nest division).
    #[must_use]
    pub fn per_array(&self, arrays: usize) -> u64 {
        if arrays == 0 {
            self.capacity
        } else {
            (self.capacity / arrays as u64).max(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fraction_rule() {
        // 3 arrays of 4096x4096 doubles, 1/128th.
        let total = 3u64 * 4096 * 4096;
        let b = MemoryBudget::paper_fraction(total, 128);
        assert_eq!(b.capacity(), total / 128);
    }

    #[test]
    fn alloc_free_cycle() {
        let mut b = MemoryBudget::new(100);
        b.alloc(60).expect("fits");
        assert_eq!(b.available(), 40);
        assert!(b.alloc(50).is_err());
        b.free(30);
        b.alloc(50).expect("fits now");
        assert_eq!(b.in_use(), 80);
    }

    #[test]
    #[should_panic(expected = "freeing")]
    fn over_free_panics() {
        let mut b = MemoryBudget::new(10);
        b.free(1);
    }

    #[test]
    fn per_array_split() {
        let b = MemoryBudget::new(100);
        assert_eq!(b.per_array(3), 33);
        assert_eq!(b.per_array(0), 100);
    }
}
