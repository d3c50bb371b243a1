//! Custom domain-decomposition topologies (paper Fig. 2) and sparse-point
//! ownership at shared rank boundaries (paper Fig. 3).
//!
//! ```sh
//! cargo run --example custom_topology
//! ```

use std::sync::Arc;

use mpix::prelude::*;

fn main() {
    // --- Fig. 2: three 16-rank topologies over a 3-D grid ---------------
    let global = [32usize, 32, 32];
    for topology in [vec![4, 2, 2], vec![2, 2, 4], vec![4, 4, 1]] {
        let dc = Decomposition::new(&global, &topology);
        println!("topology={topology:?}:");
        // Show the shard shape of rank 0 and the neighbour structure of a
        // middle rank.
        let shard = dc.local_shape(&topology.iter().map(|_| 0).collect::<Vec<_>>());
        println!("  rank (0,0,0) owns a {shard:?} shard");
        let out = Universe::run(16, |comm| {
            let cart = CartComm::new(comm, &topology);
            (
                cart.coords().to_vec(),
                cart.face_neighbors().len(),
                cart.all_neighbors().len(),
            )
        });
        let (coords, faces, all) = out.iter().max_by_key(|(_, _, all)| *all).unwrap();
        println!("  best-connected rank {coords:?}: {faces} face neighbours, {all} total");
    }

    // --- Fig. 3: sparse point ownership ---------------------------------
    // An 8x8 grid over 2x2 ranks; the ownership boundary is at index 4.
    let dc = Arc::new(Decomposition::new(&[8, 8], &[2, 2]));
    let spacing = vec![1.0, 1.0];
    let named = [
        ("A (interior of rank 0)", vec![1.4, 1.6]),
        ("B (shared x-boundary)", vec![3.5, 1.0]),
        ("C (shared corner)", vec![3.5, 3.5]),
        ("D (shared y-boundary)", vec![1.0, 3.5]),
    ];
    println!("\nsparse point ownership (Fig. 3):");
    for (name, coords) in named {
        let sp = SparsePoints::new(vec![coords.clone()], spacing.clone());
        let owners = sp.owner_coords(0, &dc);
        println!("  point {name} at {coords:?}: owned by ranks {owners:?}");
    }

    // Injection across a shared corner deposits exactly the source value.
    let sp = SparsePoints::new(vec![vec![3.5, 3.5]], spacing);
    let mut total = 0.0f64;
    for ci in 0..2 {
        for cj in 0..2 {
            let mut arr = DistArray::new(Arc::clone(&dc), &[ci, cj], 2);
            SparsePlan::build(&sp, &arr).inject(arr.raw_mut(), |_| 42.0);
            total += arr.raw().iter().map(|&v| v as f64).sum::<f64>();
        }
    }
    println!("\ninjected 42.0 at the shared corner; sum over all shards = {total:.3}");
    assert!((total - 42.0).abs() < 1e-4);
    println!("each grid node written exactly once across the replication set ✓");
}
