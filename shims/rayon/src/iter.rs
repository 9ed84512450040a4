//! Ordered fork-join parallel iterators.

use std::panic::resume_unwind;

/// An eagerly materialized parallel iterator over owned items.
pub struct ParIter<T> {
    items: Vec<T>,
}

/// Lazy `map` adapter; the closure runs on worker threads at `collect` time.
pub struct Map<P, F> {
    base: P,
    f: F,
}

/// The executable side of the parallel-iterator API.
pub trait ParallelIterator: Sized {
    type Item: Send;

    /// Executes the chain, preserving input order.
    fn run(self) -> Vec<Self::Item>;

    fn map<U, F>(self, f: F) -> Map<Self, F>
    where
        U: Send,
        F: Fn(Self::Item) -> U + Sync,
    {
        Map { base: self, f }
    }

    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        self.map(f).run();
    }

    fn collect<C: FromParallelIterator<Self::Item>>(self) -> C {
        C::from_par(self.run())
    }
}

impl<T: Send> ParallelIterator for ParIter<T> {
    type Item = T;

    fn run(self) -> Vec<T> {
        self.items
    }
}

impl<P, U, F> ParallelIterator for Map<P, F>
where
    P: ParallelIterator,
    U: Send,
    F: Fn(P::Item) -> U + Sync,
{
    type Item = U;

    fn run(self) -> Vec<U> {
        parallel_apply(self.base.run(), &self.f)
    }
}

/// Conversion of any iterable into a parallel iterator (`into_par_iter`).
pub trait IntoParallelIterator {
    type Item: Send;

    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<I> IntoParallelIterator for I
where
    I: IntoIterator,
    I::Item: Send,
{
    type Item = I::Item;

    fn into_par_iter(self) -> ParIter<I::Item> {
        ParIter {
            items: self.into_iter().collect(),
        }
    }
}

/// Borrowing conversion (`par_iter`), yielding `&T` items.
pub trait IntoParallelRefIterator<'a> {
    type Item: Send + 'a;

    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;

    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;

    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// Sinks `collect` can target.
pub trait FromParallelIterator<T>: Sized {
    fn from_par(items: Vec<T>) -> Self;
}

impl<T> FromParallelIterator<T> for Vec<T> {
    fn from_par(items: Vec<T>) -> Self {
        items
    }
}

/// Short-circuiting collect: the first error (in input order) wins, as with
/// sequential `Iterator::collect::<Result<_, _>>()`.
impl<T, E> FromParallelIterator<Result<T, E>> for Result<Vec<T>, E> {
    fn from_par(items: Vec<Result<T, E>>) -> Self {
        items.into_iter().collect()
    }
}

/// Maps `f` over `items` on scoped threads, one contiguous chunk per worker,
/// and reassembles results in input order. Worker panics are propagated.
fn parallel_apply<T, U, F>(items: Vec<T>, f: &F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    let workers = crate::current_num_threads().min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Split into `workers` contiguous chunks of near-equal length.
    let base = n / workers;
    let extra = n % workers;
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(workers);
    let mut it = items.into_iter();
    for w in 0..workers {
        let len = base + usize::from(w < extra);
        chunks.push(it.by_ref().take(len).collect());
    }

    std::thread::scope(|scope| {
        let mut drain = chunks.into_iter();
        // Run the first chunk on the calling thread; spawn the rest.
        let first = drain.next().unwrap_or_default();
        let handles: Vec<_> = drain
            .map(|chunk| scope.spawn(move || chunk.into_iter().map(f).collect::<Vec<U>>()))
            .collect();
        let mut out: Vec<U> = first.into_iter().map(f).collect();
        for handle in handles {
            match handle.join() {
                Ok(part) => out.extend(part),
                Err(payload) => resume_unwind(payload),
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn into_par_iter_preserves_order() {
        let out: Vec<usize> = (0..1000usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(out, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_borrows() {
        let data: Vec<f64> = (0..257).map(|i| i as f64).collect();
        let out: Vec<f64> = data.par_iter().map(|x| x + 1.0).collect();
        assert_eq!(out[0], 1.0);
        assert_eq!(out[256], 257.0);
        assert_eq!(data.len(), 257); // still usable after the borrow
    }

    #[test]
    fn collect_into_result_short_circuits_in_order() {
        let ok: Result<Vec<usize>, String> = (0..10usize).into_par_iter().map(Ok).collect();
        assert_eq!(ok.unwrap(), (0..10).collect::<Vec<_>>());

        let err: Result<Vec<usize>, usize> = (0..10usize)
            .into_par_iter()
            .map(|i| if i >= 4 { Err(i) } else { Ok(i) })
            .collect();
        assert_eq!(err.unwrap_err(), 4);
    }

    #[test]
    fn chained_maps_compose() {
        let out: Vec<String> = vec![1, 2, 3]
            .into_par_iter()
            .map(|i| i * 10)
            .map(|i| i.to_string())
            .collect();
        assert_eq!(out, ["10", "20", "30"]);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u8> = Vec::<u8>::new().into_par_iter().map(|x| x).collect();
        assert!(out.is_empty());
    }
}
