//! Regenerates **Figure 5**: time to compute one signature as a function
//! of the aggregation window `wl` (a, with `n = 100`) and of the number of
//! dimensions `n` (b, with `wl = 100`).
//!
//! Random `S_w` matrices are generated for each size; each method computes
//! a signature 20 times and the median time is reported, exactly as in the
//! paper (Sec. IV-D). The CS training stage is excluded from timing — it
//! runs once offline. Expected shape: all methods linear in `n`;
//! Tuncer/Bodik super-linear in `wl` (their `O(wl log wl)` percentile
//! sorts); CS and Lan linear in `wl`; CS roughly an order of magnitude
//! faster than Tuncer/Bodik at the largest sizes.
//!
//! Usage: `cargo run --release -p cwsmooth-bench --bin fig5
//!   [--seed S] [--reps R] [--max N]`

use cwsmooth_bench::snapshot::time_ms;
use cwsmooth_bench::{results_dir, Args, NamedMethod, CS_BLOCK_SWEEP, LAN_WR};
use cwsmooth_core::baselines::{BodikMethod, LanMethod, TuncerMethod};
use cwsmooth_core::cs::{CsMethod, CsTrainer, OrderingStrategy};
use cwsmooth_data::csv::TableWriter;
use cwsmooth_linalg::Matrix;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn random_matrix(n: usize, t: usize, rng: &mut ChaCha8Rng) -> Matrix {
    let data: Vec<f64> = (0..n * t).map(|_| rng.gen::<f64>()).collect();
    Matrix::from_vec(n, t, data).unwrap()
}

/// The Fig. 5 roster. CS models use the identity ordering so that model
/// *training* (explicitly excluded from the paper's timing) stays O(n·t)
/// even at n = 10k; the timed sorting/smoothing stages are independent of
/// which permutation the model holds.
fn timing_roster(sw: &Matrix) -> Vec<NamedMethod> {
    let model = CsTrainer::default()
        .with_ordering(OrderingStrategy::Identity)
        .train(sw)
        .expect("training");
    let mut out: Vec<NamedMethod> = vec![
        NamedMethod {
            name: "Tuncer".into(),
            method: Box::new(TuncerMethod),
        },
        NamedMethod {
            name: "Bodik".into(),
            method: Box::new(BodikMethod),
        },
        NamedMethod {
            name: "Lan".into(),
            method: Box::new(LanMethod::new(LAN_WR).unwrap()),
        },
    ];
    for blocks in CS_BLOCK_SWEEP {
        // Fixed display names: `CsMethod::name()` would report e.g. CS-10
        // as "CS-All" whenever l happens to equal n.
        let (name, cs) = match blocks {
            Some(l) => (format!("CS-{l}"), CsMethod::new(model.clone(), l).unwrap()),
            None => (
                "CS-All".to_string(),
                CsMethod::all_blocks(model.clone()).unwrap(),
            ),
        };
        out.push(NamedMethod {
            name,
            method: Box::new(cs),
        });
    }
    out
}

fn sweep(
    axis: &str,
    sizes: &[usize],
    fixed: usize,
    reps: usize,
    seed: u64,
    table: &mut TableWriter<std::fs::File>,
) {
    println!(
        "\n=== Fig 5{}: sweep over {axis} (other dim fixed at {fixed}) ===",
        if axis == "wl" { 'a' } else { 'b' }
    );
    print!("{:>8}", axis);
    let mut header_done = false;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for &size in sizes {
        let (n, wl) = if axis == "wl" {
            (fixed, size)
        } else {
            (size, fixed)
        };
        let sw = random_matrix(n, wl, &mut rng);
        let roster: Vec<NamedMethod> = timing_roster(&sw);
        if !header_done {
            for m in &roster {
                print!("{:>12}", m.name);
            }
            println!();
            header_done = true;
        }
        print!("{size:>8}");
        for named in &roster {
            let t = time_ms(reps, || {
                std::hint::black_box(named.method.compute(&sw, None).expect("signature"));
            }) / 1000.0;
            print!("{:>12.6}", t);
            table
                .row(&[
                    axis.to_string(),
                    size.to_string(),
                    named.name.clone(),
                    format!("{t:.9}"),
                ])
                .unwrap();
        }
        println!();
    }
}

fn main() {
    let args = Args::capture();
    let seed: u64 = args.get("seed", 42);
    let reps: usize = args.get("reps", 20);
    let max: usize = args.get("max", 10_000);

    let sizes: Vec<usize> = [10usize, 1000, 2000, 4000, 6000, 8000, 10_000]
        .into_iter()
        .filter(|&s| s <= max)
        .collect();

    let path = results_dir().join("fig5.csv");
    let file = std::fs::File::create(&path).expect("create fig5.csv");
    let mut table = TableWriter::new(file, &["axis", "size", "method", "median_seconds"]).unwrap();

    sweep("wl", &sizes, 100, reps, seed, &mut table);
    sweep("n", &sizes, 100, reps, seed.wrapping_add(1), &mut table);

    println!("\nwrote {}", path.display());
}
