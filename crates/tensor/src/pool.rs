//! A bounded, thread-local free list of tensor buffers.
//!
//! A training step makes and drops the same tensors, at the same sizes,
//! every time: layer outputs, cached inputs, gradients, scratch. Freed, a
//! buffer of a few hundred KiB goes back to the allocator, which may hand
//! its pages back to the kernel, so the next step faults them in again.
//! Code that wants its buffers kept takes them with [`zeros`] or
//! [`copy_of`] and gives them back with [`recycle`]; once one step has
//! warmed the list, the next step's requests are all served from it, and
//! [`release`] frees what the list holds when the loop is over.
//!
//! A request takes the smallest free buffer of at least its length and at
//! most twice it (the most recently recycled of equal ones), so a buffer
//! can serve the next layer's slightly smaller activation without ever
//! holding more than twice what it is asked for. [`allocations`] counts
//! the requests no buffer fitted, which is what makes "a step allocates no
//! tensor buffer" testable. A tensor dropped instead of recycled is simply
//! freed; nothing else in the workspace (the deployed engine, serving)
//! goes through the list.

use crate::shape::Shape;
use crate::tensor::Tensor;
use std::cell::RefCell;

/// Free buffers a thread keeps. When the list is full, recycling a buffer
/// frees the oldest one, so sizes that stop being asked for age out.
const MAX_FREE: usize = 512;

#[derive(Default)]
struct FreeList {
    /// Oldest first.
    free: Vec<Vec<f32>>,
    allocations: u64,
}

thread_local! {
    static FREE: RefCell<FreeList> = RefCell::default();
}

/// An empty buffer with room for `len` values: the best fit among the free
/// ones (see the module docs), or a new one of exactly `len`.
fn take(len: usize) -> Vec<f32> {
    if len == 0 {
        return Vec::new();
    }
    FREE.with(|list| {
        let mut list = list.borrow_mut();
        let best = list
            .free
            .iter()
            .enumerate()
            .rev()
            .filter(|(_, buf)| (len..=2 * len).contains(&buf.capacity()))
            .min_by_key(|(_, buf)| buf.capacity())
            .map(|(i, _)| i);
        match best {
            Some(i) => {
                let mut buf = list.free.remove(i);
                buf.clear();
                buf
            }
            None => {
                list.allocations += 1;
                Vec::with_capacity(len)
            }
        }
    })
}

/// A zero-filled tensor of `shape`, on a recycled buffer when one fits.
pub fn zeros(shape: impl Into<Shape>) -> Tensor {
    let shape = shape.into();
    let mut data = take(shape.len());
    data.resize(shape.len(), 0.0);
    Tensor::from_vec(shape, data)
}

/// A copy of `t`, on a recycled buffer when one fits.
pub fn copy_of(t: &Tensor) -> Tensor {
    let mut data = take(t.len());
    data.extend_from_slice(t.as_slice());
    Tensor::from_vec(t.shape(), data)
}

/// Gives `t`'s buffer to this thread's free list.
pub fn recycle(t: Tensor) {
    let buf = t.into_vec();
    if buf.capacity() == 0 {
        return;
    }
    // During thread teardown the list may already be gone; the buffer is
    // then simply freed.
    let _ = FREE.try_with(|list| {
        let mut list = list.borrow_mut();
        if list.free.len() == MAX_FREE {
            list.free.remove(0);
        }
        list.free.push(buf);
    });
}

/// Frees every buffer this thread's list holds, so memory kept for one
/// loop (a training run) is the allocator's again once the loop is over.
pub fn release() {
    FREE.with(|list| list.borrow_mut().free.clear());
}

/// Buffers this thread's list has had to allocate because none of the
/// requested length was free.
pub fn allocations() -> u64 {
    FREE.with(|list| list.borrow().allocations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_recycled_buffer_serves_requests_up_to_twice_smaller() {
        let before = allocations();
        let mut t = zeros(Shape::d2(3, 4));
        t.as_mut_slice().fill(7.0);
        let ptr = t.as_slice().as_ptr();
        recycle(t);
        let again = zeros(Shape::d4(1, 2, 2, 3));
        assert_eq!(again.as_slice().as_ptr(), ptr, "same buffer");
        assert!(again.as_slice().iter().all(|&v| v.to_bits() == 0), "zeroed again");
        assert_eq!(allocations(), before + 1);

        // Less than half the length misses; a copy reuses.
        let other = zeros(Shape::d1(5));
        assert_eq!(allocations(), before + 2);
        recycle(again);
        let copy = copy_of(&Tensor::full(Shape::d1(12), 2.0));
        assert_eq!(copy.as_slice().as_ptr(), ptr);
        assert_eq!(copy.as_slice(), &[2.0; 12]);
        assert_eq!(allocations(), before + 2);
        recycle(other);
        recycle(copy);
    }

    #[test]
    fn empty_tensors_cost_nothing_and_the_list_is_bounded() {
        let before = allocations();
        recycle(zeros(Shape::d1(0)));
        assert_eq!(allocations(), before);
        for len in 1..=MAX_FREE + 10 {
            recycle(Tensor::zeros(Shape::d1(len)));
        }
        FREE.with(|list| assert_eq!(list.borrow().free.len(), MAX_FREE));
        // The oldest went first: the shortest lengths.
        let _ = zeros(Shape::d1(1));
        assert_eq!(allocations(), before + 1);
        let _ = zeros(Shape::d1(MAX_FREE + 10));
        assert_eq!(allocations(), before + 1);
    }
}
