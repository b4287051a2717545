//! Reusable inference scratch: the activation buffers and systolic output
//! planes one inference needs, pooled so the next inference reuses them.
//!
//! The deployed engine's steady state is a fixed sequence of
//! fixed-size buffer demands per inference (the network and batch shape
//! don't change between requests). [`ActivationScratch`] exploits that: a
//! best-fit free list of activation buffers (`Vec<i8>`) plus the systolic
//! kernel's [`RunScratch`] (its `i32` accumulator plane is what the
//! engine's quantizer epilogue reads). Layers draw output buffers from the
//! pool and the staged executor returns each layer's inputs to it as soon
//! as the next layer has consumed them — a ping-pong through the pool — so
//! after a warm-up inference the pool serves every request and the hot
//! path performs no steady-state heap allocation. Serving workers and
//! pipeline stages each own one long-lived scratch.
//!
//! The pool's counters ([`ActivationScratch::buffer_allocations`] /
//! [`ActivationScratch::buffer_reuses`]) make that property testable: in
//! steady state the allocation count stays flat while reuses grow.

use crate::qmap::QMap;
use cc_systolic::RunScratch;

/// Free buffers a pool retains before dropping recycled ones. Bounds pool
/// growth when buffers migrate between scratches (pipelined stages recycle
/// upstream stages' buffers into their own pools).
const MAX_FREE_BUFFERS: usize = 64;

/// A best-fit free list of activation buffers with reuse accounting.
#[derive(Debug, Default)]
pub(crate) struct BufPool {
    free: Vec<Vec<i8>>,
    allocations: u64,
    reuses: u64,
}

impl BufPool {
    /// Returns a zeroed buffer of exactly `len` bytes, reusing the
    /// smallest free buffer whose capacity suffices, allocating only on a
    /// pool miss.
    pub(crate) fn take_zeroed(&mut self, len: usize) -> Vec<i8> {
        let mut buf = self.take_with_capacity(len);
        buf.resize(len, 0);
        buf
    }

    /// Returns an *empty* buffer with at least `len` bytes of capacity —
    /// for callers that fill by `extend` and would discard a zero-fill.
    pub(crate) fn take_with_capacity(&mut self, len: usize) -> Vec<i8> {
        let mut best: Option<(usize, usize)> = None; // (index, capacity)
        for (i, buf) in self.free.iter().enumerate() {
            let cap = buf.capacity();
            if cap >= len {
                let better = match best {
                    None => true,
                    Some((_, best_cap)) => cap < best_cap,
                };
                if better {
                    best = Some((i, cap));
                }
            }
        }
        match best {
            Some((i, _)) => {
                self.reuses += 1;
                let mut buf = self.free.swap_remove(i);
                buf.clear();
                buf
            }
            None => {
                self.allocations += 1;
                Vec::with_capacity(len)
            }
        }
    }

    /// Buffers served from the free list so far.
    #[cfg(test)]
    pub(crate) fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Returns a buffer to the pool. A full pool evicts its smallest
    /// buffer rather than rejecting a larger newcomer — a pool saturated
    /// with undersized buffers (pipelined stages recycle upstream stages'
    /// smaller activations) must not permanently shed the sizes it
    /// actually needs.
    pub(crate) fn recycle(&mut self, mut buf: Vec<i8>) {
        if self.free.len() >= MAX_FREE_BUFFERS {
            let smallest = self
                .free
                .iter()
                .enumerate()
                .min_by_key(|(_, b)| b.capacity())
                .map(|(i, b)| (i, b.capacity()));
            match smallest {
                Some((i, cap)) if cap < buf.capacity() => {
                    self.free.swap_remove(i);
                }
                _ => return, // incoming buffer is the smallest: drop it
            }
        }
        buf.clear();
        self.free.push(buf);
    }
}

/// Free `Vec<QMap>` shells a pool retains. Shells are a few machine words
/// each; a handful covers the deepest batch pipeline.
const MAX_FREE_SHELLS: usize = 16;

/// An arena of empty `Vec<QMap>` shells: the per-layer batch containers
/// the engine used to allocate fresh every layer. Shells are taken empty,
/// filled with one layer's output maps, drained when the next layer has
/// consumed them (their map storage goes back to [`BufPool`]), and the
/// emptied shell returns here — closing the last per-layer steady-state
/// allocation of the hot path.
#[derive(Debug, Default)]
pub(crate) struct ShellPool {
    free: Vec<Vec<QMap>>,
    allocations: u64,
    reuses: u64,
}

impl ShellPool {
    /// Returns an empty shell with at least `cap` slots of capacity.
    pub(crate) fn take(&mut self, cap: usize) -> Vec<QMap> {
        match self.free.iter().position(|s| s.capacity() >= cap) {
            Some(i) => {
                self.reuses += 1;
                self.free.swap_remove(i)
            }
            None => {
                self.allocations += 1;
                Vec::with_capacity(cap)
            }
        }
    }

    /// Returns a *drained* shell to the pool. A shell that still holds
    /// maps would strand their buffers outside the [`BufPool`], so a
    /// non-empty shell is cleared (dropping its maps) rather than pooled
    /// with contents.
    pub(crate) fn recycle(&mut self, mut shell: Vec<QMap>) {
        debug_assert!(shell.is_empty(), "recycle drained shells, not full ones");
        shell.clear();
        if self.free.len() < MAX_FREE_SHELLS {
            self.free.push(shell);
        }
    }
}

/// Caller-owned scratch for allocation-free inference: hold one per
/// serving worker (or pipeline stage) and pass it to
/// [`crate::DeployedNetwork::run_batch_scratch`] /
/// [`crate::DeployedNetwork::run_stage_banded`] on every call.
#[derive(Debug, Default)]
pub struct ActivationScratch {
    /// Output planes for the systolic kernel.
    pub(crate) run: RunScratch,
    /// Recycled activation storage.
    pub(crate) bufs: BufPool,
    /// Recycled per-layer `Vec<QMap>` shells.
    pub(crate) shells: ShellPool,
}

impl ActivationScratch {
    /// An empty scratch; buffers are created on first use and reused
    /// afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Activation buffers created because the pool had none big enough
    /// (pool misses). Flat across inferences once the scratch is warm —
    /// the "zero steady-state allocations" invariant the serving hot path
    /// relies on.
    pub fn buffer_allocations(&self) -> u64 {
        self.bufs.allocations
    }

    /// Activation buffers served from the pool (pool hits).
    pub fn buffer_reuses(&self) -> u64 {
        self.bufs.reuses
    }

    /// `Vec<QMap>` shells created because the arena had none (shell
    /// misses). Flat across inferences once the scratch is warm, same as
    /// [`ActivationScratch::buffer_allocations`].
    pub fn shell_allocations(&self) -> u64 {
        self.shells.allocations
    }

    /// `Vec<QMap>` shells served from the arena (shell hits).
    pub fn shell_reuses(&self) -> u64 {
        self.shells.reuses
    }

    /// Returns a consumed feature map's storage to the pool.
    pub fn recycle_map(&mut self, map: QMap) {
        self.bufs.recycle(map.into_raw());
    }

    /// Drains a consumed batch container: every map's storage returns to
    /// the buffer pool and the emptied shell returns to the arena.
    pub fn recycle_batch(&mut self, mut maps: Vec<QMap>) {
        for map in maps.drain(..) {
            self.bufs.recycle(map.into_raw());
        }
        self.shells.recycle(maps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_reuses_best_fit() {
        let mut pool = BufPool::default();
        let small = pool.take_zeroed(8);
        let large = pool.take_zeroed(64);
        assert_eq!(pool.allocations, 2);
        pool.recycle(large);
        pool.recycle(small);
        // A request for 8 must take the 8-capacity buffer, not the 64.
        let again = pool.take_zeroed(8);
        assert!(again.capacity() < 64, "best fit must prefer the snug buffer");
        assert_eq!(pool.reuses, 1);
        // The big request still hits the pooled 64.
        let big = pool.take_zeroed(33);
        assert!(big.capacity() >= 64);
        assert_eq!((pool.allocations, pool.reuses), (2, 2));
    }

    #[test]
    fn take_zeroed_clears_previous_contents() {
        let mut pool = BufPool::default();
        let mut buf = pool.take_zeroed(4);
        buf.copy_from_slice(&[1, 2, 3, 4]);
        pool.recycle(buf);
        assert_eq!(pool.take_zeroed(4), vec![0i8; 4]);
    }

    #[test]
    fn pool_growth_is_bounded() {
        let mut pool = BufPool::default();
        for _ in 0..(2 * MAX_FREE_BUFFERS) {
            pool.recycle(Vec::with_capacity(16));
        }
        assert_eq!(pool.free.len(), MAX_FREE_BUFFERS);
    }

    /// A full pool must trade up, not permanently reject the large sizes
    /// it actually needs.
    #[test]
    fn full_pool_evicts_smallest_for_larger_newcomer() {
        let mut pool = BufPool::default();
        for _ in 0..MAX_FREE_BUFFERS {
            pool.recycle(Vec::with_capacity(8));
        }
        pool.recycle(Vec::with_capacity(1024));
        assert!(
            pool.free.iter().any(|b| b.capacity() >= 1024),
            "large newcomer must displace a small buffer"
        );
        assert_eq!(pool.free.len(), MAX_FREE_BUFFERS);
        // A smaller newcomer is the one dropped.
        pool.recycle(Vec::with_capacity(1));
        assert!(pool.free.iter().all(|b| b.capacity() > 1));
    }

    #[test]
    fn shell_arena_reuses_and_bounds_growth() {
        let mut pool = ShellPool::default();
        let shell = pool.take(4);
        assert!(shell.capacity() >= 4);
        assert_eq!((pool.allocations, pool.reuses), (1, 0));
        pool.recycle(shell);
        let again = pool.take(2);
        assert!(again.capacity() >= 4, "arena must hand back the pooled shell");
        assert_eq!((pool.allocations, pool.reuses), (1, 1));
        pool.recycle(again);
        for _ in 0..(2 * MAX_FREE_SHELLS) {
            pool.recycle(Vec::new());
        }
        assert!(pool.free.len() <= MAX_FREE_SHELLS, "shell arena growth must be bounded");
    }

    #[test]
    fn recycle_batch_returns_maps_and_shell() {
        let mut scratch = ActivationScratch::new();
        let mut batch = scratch.shells.take(2);
        batch.push(QMap::from_raw(vec![1, 2], 2, 1, 1, 1.0));
        batch.push(QMap::from_raw(vec![3, 4], 2, 1, 1, 1.0));
        scratch.recycle_batch(batch);
        // Both map buffers landed in the buffer pool...
        assert_eq!(scratch.bufs.take_zeroed(2).capacity(), 2);
        assert_eq!(scratch.buffer_reuses(), 1);
        // ...and the shell landed back in the arena.
        assert_eq!(scratch.shell_reuses(), 0);
        scratch.shells.take(1);
        assert_eq!(scratch.shell_reuses(), 1);
    }

    #[test]
    fn take_with_capacity_returns_empty_reusable_buffer() {
        let mut pool = BufPool::default();
        pool.recycle(Vec::with_capacity(32));
        let buf = pool.take_with_capacity(16);
        assert!(buf.is_empty() && buf.capacity() >= 16);
        assert_eq!(pool.reuses, 1);
    }
}
