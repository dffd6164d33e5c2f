//! A small work pool for embarrassingly parallel sweeps.
//!
//! The §V-A reproduction solves `10,000 × 4 sizes × n!` linear programs;
//! a channel-fed thread pool turns that from minutes into seconds. Built
//! on `crossbeam` channels (work distribution) and a `parking_lot` mutex
//! (result collection) — the two concurrency crates this workspace allows.

use parking_lot::Mutex;

/// Map `f` over `inputs` using all available cores, preserving input order
/// in the output.
pub fn par_map<I, T, F>(inputs: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let n = inputs.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(4)
        .min(n);
    if threads <= 1 {
        return inputs.into_iter().map(f).collect();
    }

    let (tx, rx) = crossbeam::channel::unbounded::<(usize, I)>();
    for item in inputs.into_iter().enumerate() {
        tx.send(item).expect("unbounded channel accepts all sends");
    }
    drop(tx);

    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                while let Ok((i, item)) = rx.recv() {
                    let out = f(item);
                    slots.lock()[i] = Some(out);
                }
            });
        }
    });
    slots
        .into_inner()
        .into_iter()
        .map(|s| s.expect("every slot filled"))
        .collect()
}

/// FNV-1a hash of a routing key. Deterministic across runs and platforms,
/// so a tenant always lands on the same shard for a given shard count.
pub fn key_hash(key: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in key.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = par_map((0..1000u64).collect(), |x| x * 2);
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 2 * i as u64);
        }
    }

    #[test]
    fn empty_input() {
        let out: Vec<u64> = par_map(Vec::<u64>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        assert_eq!(par_map(vec![41u64], |x| x + 1), vec![42]);
    }

    #[test]
    fn key_hash_is_fnv1a() {
        // Reference vectors for 64-bit FNV-1a.
        assert_eq!(key_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(key_hash("a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn actually_parallel_work() {
        // Hash-like busywork across threads; result must be deterministic.
        let out = par_map((0..64u64).collect(), |x| {
            let mut acc = x;
            for _ in 0..1000 {
                acc = acc
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            acc
        });
        let expected = par_map(vec![0u64], |x| {
            let mut acc = x;
            for _ in 0..1000 {
                acc = acc
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            acc
        });
        assert_eq!(out[0], expected[0]);
    }
}
