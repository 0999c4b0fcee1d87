#![forbid(unsafe_code)]

//! `dgr-bench`: the paper's tables and figures.
//!
//! ```text
//! cargo run -p dgr-bench --release -- <table1|table2|table3|fig5|fig6|ablation> [--fast]
//! ```
//!
//! | name       | reproduces | contents |
//! |------------|-----------|----------|
//! | `table1`   | Table 1   | DGR vs exact ILP on the synthetic protocol |
//! | `table2`   | Table 2   | DGR vs the CUGR2-style router on congested 5-layer cases |
//! | `table3`   | Table 3   | DGR vs SPRoute-style and Lagrangian routers on ispd18 cases |
//! | `fig5`     | Fig. 5a/b | runtime and memory vs net count |
//! | `fig6`     | Fig. 6    | overflow-activation study |
//! | `ablation` | (extra)   | Gumbel / annealing / top-p / candidate-count ablations |
//!
//! `--fast` shrinks every workload for smoke runs. Every name but
//! `table1` is a [`Spec`] run by [`experiment::run`]; a spec's router seeds
//! are the constants below.

mod experiment;

use std::time::{Duration, Instant};

use dgr_autodiff::Activation;
use dgr_baseline::{IlpSolver, IlpStatus};
use dgr_core::{DgrConfig, DgrRouter, ExtractionMode};
use dgr_dag::PatternConfig;
use dgr_grid::Design;
use dgr_io::{
    catalog_case, congested_cases, ispd18_cases, table1_design, table1_rows, IspdLikeConfig,
};
use dgr_rsmt::CandidateConfig;
use experiment::{
    across, catalog, dgr_config, metric, overflow_edges, ratio, route_secs, routed_edges,
    routed_overflow, run, vias, weighted_overflow, wirelength, BenchResult, Column, Line, Router,
    Row, Spec,
};

const TABLE2_SEEDS: [u64; 1] = [7];
const TABLE3_SEEDS: [u64; 1] = [11];
const FIG5_SEEDS: [u64; 1] = [5];
/// `--fast` runs the first only.
const FIG6_SEEDS: [u64; 2] = [1, 2];
const ABLATION_SEEDS: [u64; 1] = [3];

const MIB: f64 = 1024.0 * 1024.0;

fn main() -> BenchResult<()> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    args.retain(|a| a != "--fast");
    match args.join(" ").as_str() {
        "table1" => table1(fast),
        "table2" => run(&table2(fast)),
        "table3" => run(&table3(fast)),
        "fig5" => run(&fig5(fast)),
        "fig6" => run(&fig6(fast)),
        "ablation" => run(&ablation(fast)),
        _ => Err("usage: dgr-bench <table1|table2|table3|fig5|fig6|ablation> [--fast]".into()),
    }
}

/// The case's name.
fn case(width: isize) -> Column {
    Column::new("case", width, |l| l.case.to_string())
}

/// The design's net count.
fn nets(width: isize) -> Column {
    Column::new("nets", width, |l| l.design.num_nets().to_string())
}

/// Table 2 — DGR vs the CUGR2-style router on the congested 5-layer
/// cases: overflowed edges (paper ratio 1.2391), wirelength (1.0095) and
/// vias (1.0128). Both routers get the same maze refine, so the stage the
/// paper's claim is about — DGR in place of CUGR2's pattern routing — is
/// the "as routed" columns; the final ones are after the shared refine.
fn table2(fast: bool) -> Spec {
    let row = |seed| {
        let dgr = Router::Dgr(dgr_config(fast, seed));
        Row::new(&[], vec![Router::Sequential, dgr])
    };
    Spec {
        cases: catalog(congested_cases(), fast),
        rows: TABLE2_SEEDS.map(row).into(),
        columns: vec![
            vec![case(-12), nets(7)],
            across(&["rt ovf CUGR2", "rt ovf DGR"], 12, 0, routed_edges),
            across(&["rt tof CUGR2", "rt tof DGR"], 12, 0, routed_overflow),
            across(&["ovf CUGR2", "ovf DGR"], 9, 0, overflow_edges),
            across(&["WL CUGR2", "WL DGR"], 12, 0, wirelength),
            across(&["via CUGR2", "via DGR"], 10, 0, vias),
            across(&["t CUGR2", "t DGR"], 8, 1, route_secs),
        ],
        heading: |_, _| {
            "Table 2: comparison with the CUGR2-style router on congested 5-layer cases".into()
        },
        footer: |t| {
            format!(
                "rt = as routed, before the shared maze refine; ovf = overflowed edges, tof = total overflow.\n\
                 Ratios (CUGR2-style / DGR) as routed: overflowed edges {:.4}, total overflow {:.4}\n\
                 Ratios (CUGR2-style / DGR) after refine: overflow {:.4}, wirelength {:.4}, vias {:.4}\n\
                 Paper reference ratios: 1.2391 / 1.0095 / 1.0128 — expect DGR ≤ baseline on overflow.",
                ratio(t["rt ovf CUGR2"], t["rt ovf DGR"]),
                ratio(t["rt tof CUGR2"], t["rt tof DGR"]),
                ratio(t["ovf CUGR2"], t["ovf DGR"]),
                ratio(t["WL CUGR2"], t["WL DGR"]),
                ratio(t["via CUGR2"], t["via DGR"]),
            )
        },
    }
}

/// Table 3 — DGR vs SPRoute-style and Lagrangian routers on the
/// ispd18-like suite: overflowed edges (all zero in the paper),
/// wirelength (paper: DGR −4.08 % vs SPRoute 2.0, −2.2 % vs Yao) and vias
/// (paper: DGR worse on the small cases, better from test5 up).
fn table3(fast: bool) -> Spec {
    let row = |seed| {
        let dgr = Router::Dgr(dgr_config(fast, seed));
        Row::new(&[], vec![Router::Sproute, Router::Lagrangian, dgr])
    };
    Spec {
        cases: catalog(ispd18_cases(), fast),
        rows: TABLE3_SEEDS.map(row).into(),
        columns: vec![
            vec![case(-14)],
            across(&["ovfS", "ovfY", "ovfD"], 4, 0, overflow_edges),
            across(&["WL sproute", "WL lagr", "WL DGR"], 11, 0, wirelength),
            across(&["via spr", "via lagr", "via DGR"], 9, 0, vias),
        ],
        heading: |_, _| {
            "Table 3: comparison with SPRoute-style and Lagrangian routers (ispd18-like)".into()
        },
        footer: |t| {
            format!(
                "Ratios vs DGR: wirelength sproute {:.4}, lagrangian {:.4}; vias sproute {:.4}, lagrangian {:.4}\n\
                 Paper reference: WL ratios 1.0408 / 1.0220, via ratios 1.0254 / 1.0176 (DGR best).",
                ratio(t["WL sproute"], t["WL DGR"]),
                ratio(t["WL lagr"], t["WL DGR"]),
                ratio(t["via spr"], t["via DGR"]),
                ratio(t["via lagr"], t["via DGR"]),
            )
        },
    }
}

/// Fig. 5 — runtime (a) and memory (b) vs net count over a generated
/// sweep, both routers timed as routing plus refinement. The paper's
/// claims: DGR runtime grows near-linearly and crosses below the
/// sequential router at scale; memory is linear in net count.
fn fig5(fast: bool) -> Spec {
    // net counts double from `first`
    let (first, sizes): (usize, _) = if fast { (250, 4) } else { (1000, 7) };
    let sweep = |k| {
        let num_nets = first << k;
        // grid area scales with net count to keep density comparable
        let side = (((num_nets as f64).sqrt() * 1.6).ceil() as u32).max(24);
        let config = IspdLikeConfig {
            width: side,
            height: side,
            num_nets,
            num_layers: 9,
            base_capacity: 9.0,
            clusters: (num_nets / 120).max(4),
            ..IspdLikeConfig::default()
        };
        ("sweep", config)
    };
    let row = |seed| {
        let mut cfg = dgr_config(fast, seed);
        // fewer iterations, so that the sweep dominates the runtime
        cfg.iterations = if fast { 100 } else { 300 };
        Row::new(&[], vec![Router::Dgr(cfg), Router::Sequential])
    };
    let grid = |l: &Line| format!("{}x{}", l.design.grid.width(), l.design.grid.height());
    // the process's high-water mark, read after the row's runs
    let rss = |_: &Line| {
        let peak = dgr_obs::process_memory().peak_rss.unwrap_or(0);
        format!("{:.1}", peak as f64 / MIB)
    };
    Spec {
        cases: (0..sizes).map(sweep).collect(),
        rows: FIG5_SEEDS.map(row).into(),
        columns: vec![
            vec![nets(8), Column::new("grid", 8, grid)],
            across(&["DGR t(s)", "seq t(s)"], 10, 2, route_secs),
            across(&["rt ovf DGR", "rt ovf seq"], 10, 0, routed_edges),
            across(&["ovf DGR", "ovf seq"], 7, 0, overflow_edges),
            vec![
                Column::new("peak RSS MB", 12, rss),
                metric("kernel+forest MB", 16, 1, 0, |o| {
                    let report = o.solution.train_report.as_ref();
                    report.map_or(f64::NAN, |r| r.graph_bytes as f64 / MIB)
                }),
                Column::new("loss(first→final)", 22, |l| {
                    let report = l.runs[0].solution.train_report.as_ref();
                    let first = report.and_then(|r| r.curve.first());
                    let first = first.map_or(f32::NAN, |p| p.loss);
                    format!("{first:>10.1} → {:<9.1}", l.runs[0].final_loss)
                }),
            ],
        ],
        heading: |_, _| "Fig. 5: runtime and memory vs number of nets".into(),
        footer: |_| {
            "rt ovf = overflowed edges as routed, ovf = after the shared maze refine.\n\
             Expected shapes: both runtimes near-linear; DGR's slope flatter at scale\n\
             (concurrent optimization avoids rip-up rounds); memory linear in nets."
                .into()
        },
    }
}

/// Fig. 6 — the overflow-activation study. For each activation f and a
/// small hyper-parameter grid, one scatter point per run on the two study
/// cases: x = 0.5·WL + 4·via, y = weighted overflow (10·n₁ + 1000·n₂ +
/// 10000·peak). The CUGR2-style router's point is the reference mark.
/// Paper finding: sigmoid dominates and beats CUGR2 on most runs.
fn fig6(fast: bool) -> Spec {
    let (lrs, seeds): (&[f32], _) = if fast {
        (&[0.3], &FIG6_SEEDS[..1])
    } else {
        (&[0.1, 0.3], &FIG6_SEEDS[..])
    };
    let mut rows = vec![Row {
        note: "   <- CUGR2-style reference",
        ..Row::new(&["cugr2", "-", "-"], vec![Router::Sequential])
    }];
    for activation in Activation::ALL {
        for &lr in lrs {
            for &seed in seeds {
                let mut cfg = dgr_config(fast, seed);
                (cfg.activation, cfg.learning_rate) = (activation, lr);
                let label = [activation.name(), &lr.to_string(), &seed.to_string()];
                rows.push(Row::new(&label, vec![Router::Dgr(cfg)]));
            }
        }
    }
    let cost = |o: &_| 0.5 * wirelength(o) + 4.0 * vias(o);
    let study = ["ispd18_5m", "ispd19_7m"].map(|n| catalog_case(n).expect("catalog case"));
    Spec {
        cases: catalog(study.into(), fast),
        rows,
        columns: vec![
            vec![
                Column::new("f", -10, |l| l.label[0].clone()),
                Column::new("lr", 5, |l| l.label[1].clone()),
                Column::new("seed", 5, |l| l.label[2].clone()),
            ],
            vec![
                metric("0.5*WL+4*via", 14, 0, 0, cost),
                metric("weighted ovf", 16, 0, 0, weighted_overflow),
            ],
        ],
        heading: |case, _| format!("Fig. 6 ({case}): weighted overflow vs 0.5*WL + 4*via"),
        footer: |_| {
            "Expected shape: sigmoid points dominate (lowest weighted overflow at\n\
             comparable WL/via); exp/ReLU runs scatter to higher overflow."
                .into()
        },
    }
}

/// Ablations of DGR's design choices (beyond the paper): on one congested
/// case, one knob at a time against the default configuration.
fn ablation(fast: bool) -> Spec {
    type Knob = fn(&mut DgrConfig);
    let knobs: [(&str, Knob); 10] = [
        ("default", |_| {}),
        ("no-gumbel", |c| c.gumbel_noise = false),
        ("no-anneal", |c| c.temperature_decay = 1.0),
        ("argmax", |c| c.extraction = ExtractionMode::Argmax),
        ("1-tree", |c| c.candidates = CandidateConfig::single()),
        ("5-trees", |c| c.candidates.max_candidates = 5),
        ("z-shapes", |c| c.patterns = PatternConfig::with_z(4)),
        ("z+c-shapes", |c| {
            c.patterns = PatternConfig::with_z_and_c(4, 2)
        }),
        ("adaptive", |c| c.adaptive_rounds = 2),
        ("salt-trees", |c| {
            c.candidates.max_candidates = 4;
            c.candidates.shallow_light = Some(0.5);
        }),
    ];
    let mut rows = Vec::new();
    for seed in ABLATION_SEEDS {
        for (name, knob) in knobs {
            let mut cfg = dgr_config(fast, seed);
            knob(&mut cfg);
            rows.push(Row::new(&[name], vec![Router::Dgr(cfg)]));
        }
    }
    let study = catalog_case("ispd18_5m").expect("catalog case");
    Spec {
        cases: catalog(vec![study], fast),
        rows,
        columns: vec![
            vec![Column::new("variant", -10, |l| l.label[0].clone())],
            vec![
                metric("ovf edges", 9, 0, 0, overflow_edges),
                metric("wirelength", 12, 0, 0, wirelength),
                metric("vias", 9, 0, 0, vias),
            ],
            vec![
                metric("weighted ovf", 16, 0, 0, weighted_overflow),
                metric("t(s)", 8, 1, 0, route_secs),
            ],
        ],
        heading: |case, design| format!("Ablation study on {case} ({} nets)", design.num_nets()),
        footer: |_| {
            "Expected: default ≤ single-knob ablations on weighted overflow;\n\
             z-shapes/5-trees trade runtime for marginal quality."
                .into()
        },
    }
}

/// Table 1's overflow of one raw (unrefined) DGR run in its
/// ILP-comparison profile: pure ReLU wire overflow, demand − cap over
/// wire only.
fn dgr_overflow(design: &Design, seed: u64, lr: f32, decay: f32, iters: usize) -> BenchResult<f64> {
    let mut cfg = DgrConfig::ilp_comparison();
    (cfg.seed, cfg.learning_rate, cfg.temperature_decay) = (seed, lr, decay);
    cfg.iterations = iters;
    let solution = DgrRouter::new(cfg).route(design)?;
    let grid = &design.grid;
    let mut wire = vec![0.0f32; grid.num_edges()];
    for path in solution.routes.iter().flat_map(|r| &r.paths) {
        for e in grid.polyline_edges(&path.corners)? {
            wire[e.index()] += 1.0;
        }
    }
    Ok(wire
        .iter()
        .zip(design.capacity.as_slice())
        .map(|(&d, &c)| ((d - c).max(0.0)) as f64)
        .sum())
}

/// Table 1 — DGR vs exact ILP on the synthetic protocol. For every
/// parameter row: the branch-and-bound ILP (time-limited) and DGR in its
/// ILP-comparison profile (single tree, ReLU overflow, argmax read-out),
/// over several seeds plus a small hyper-parameter search (the paper's
/// DGR*). Its own loop: the rows are a search, not a set of routers, and
/// the ILP compares raw DGR, before refinement.
fn table1(fast: bool) -> BenchResult<()> {
    let rows = table1_rows();
    let rows = if fast { rows[..5].to_vec() } else { rows };
    let ilp_limit = Duration::from_secs(if fast { 10 } else { 120 });

    println!("Table 1: comparison with ILP on synthetic data");
    println!(
        "      grid    cap     nets   box |  ILP t(s)  DGR t(s) |      ILP ovf     DGR* ovf     DGR best    DGR worst"
    );

    for params in rows {
        let design = table1_design(&params)?;

        let ilp = IlpSolver::new(ilp_limit).solve(&design)?;
        let (ilp_ovf, ilp_time) = match ilp.status {
            IlpStatus::Optimal => (
                format!("{:.0}", ilp.overflow),
                format!("{:.2}", ilp.runtime.as_secs_f64()),
            ),
            IlpStatus::TimedOut => ("N/A".to_owned(), "N/A".to_owned()),
        };

        // effort scales down with instance size: the single-CPU autodiff
        // substrate stands in for the paper's GPU (see EXPERIMENTS.md)
        let (iters, num_seeds, lrs, decays): (usize, u64, &[f32], &[f32]) = if fast {
            (300, 5, &[0.1, 0.5], &[0.85])
        } else if params.nets >= 100_000 {
            (100, 2, &[0.5], &[0.85])
        } else if params.nets >= 10_000 {
            (300, 3, &[0.1, 0.5], &[0.85])
        } else {
            (1000, 5, &[0.03, 0.1, 0.5, 1.0], &[0.8, 0.85, 0.95])
        };

        // seeds → best/worst; DGR* = small hyper-parameter search
        let t0 = Instant::now();
        let seeds = (0..num_seeds)
            .map(|s| dgr_overflow(&design, s, 0.3, 0.9, iters))
            .collect::<BenchResult<Vec<f64>>>()?;
        let dgr_time = t0.elapsed().as_secs_f64() / num_seeds as f64;
        let best = seeds.iter().copied().fold(f64::INFINITY, f64::min);
        let worst = seeds.iter().copied().fold(f64::NEG_INFINITY, f64::max);

        let mut star = best;
        for (k, &lr) in lrs.iter().enumerate() {
            for (j, &decay) in decays.iter().enumerate() {
                let o = dgr_overflow(&design, 100 + (k * 7 + j) as u64, lr, decay, iters)?;
                star = star.min(o);
            }
        }

        let grid = format!("{0}x{0}", params.grid);
        let (cap, nets, box_size) = (params.cap, params.nets, params.box_size);
        println!("{grid:>10} {cap:>6} {nets:>8} {box_size:>5} | {ilp_time:>9} {dgr_time:>9.2} | {ilp_ovf:>12} {star:>12.0} {best:>12.0} {worst:>12.0}");
    }
    println!();
    println!("Green criterion from the paper: DGR* should match ILP where ILP finishes;");
    println!("worst-seed gap should stay within a relative 1e-5 of the optimum.");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every configuration the experiments hand DGR, named by where it is
    /// built: the two profiles, `dgr_config` at both scales, and each row
    /// of `fig6` and `ablation` at both scales.
    fn experiment_configs() -> Vec<(String, DgrConfig)> {
        let mut named = vec![
            ("default".to_string(), DgrConfig::default()),
            ("ilp_comparison".to_string(), DgrConfig::ilp_comparison()),
        ];
        for (fast, scale) in [(true, "fast"), (false, "full")] {
            named.push((format!("dgr_config {scale}"), dgr_config(fast, 0)));
            for (name, spec) in [("fig6", fig6(fast)), ("ablation", ablation(fast))] {
                for row in spec.rows {
                    for router in row.routers {
                        if let Router::Dgr(cfg) = router {
                            named.push((format!("{name} {scale} {}", row.label.join(" ")), cfg));
                        }
                    }
                }
            }
        }
        named
    }

    /// The run key of every experiment configuration is the line of
    /// `tests/golden/config_keys.txt` named like it. The file holds each
    /// configuration's `{:?}` text with its seed set to 0 — the key the
    /// ledger hashed before the key was written out field by field — so
    /// record it only at a commit that still derives `Debug` for the
    /// configuration (`DGR_UPDATE_GOLDEN=1` rewrites it).
    #[test]
    fn run_keys_match_the_golden_file() {
        let text: String = experiment_configs()
            .iter()
            .map(|(name, cfg)| format!("{name}: {}\n", cfg.run_key()))
            .collect();
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/golden/config_keys.txt"
        );
        if std::env::var_os("DGR_UPDATE_GOLDEN").is_some() {
            std::fs::write(path, &text).expect("write the golden");
        }
        let want = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("{path}: {e} (DGR_UPDATE_GOLDEN=1 records it)"));
        for (got, want) in text.lines().zip(want.lines()) {
            assert_eq!(got, want);
        }
        assert_eq!(text.lines().count(), want.lines().count());
    }

    /// Each setting the run key carries moves the ledger's `config_fp` on
    /// its own, and the seed and the candidate clamp — which the session
    /// overwrites with the grid's bounds — move nothing: a field the key
    /// leaves out would pair runs that differ, one it keeps would part
    /// runs that route alike.
    #[test]
    fn every_setting_but_the_seed_moves_the_config_fp() {
        use dgr_grid::{CapacityBuilder, GcellGrid, Net, Point};
        use dgr_post::pipeline;

        let grid = GcellGrid::new(6, 6).unwrap();
        let cap = CapacityBuilder::uniform(&grid, 2.0).build(&grid).unwrap();
        let net = Net::new("n", vec![Point::new(0, 0), Point::new(4, 3)]);
        let design = Design::new(grid, cap, vec![net], 2).unwrap();
        let cfg = DgrConfig {
            iterations: 1,
            ..DgrConfig::default()
        };
        let hooks = &mut dgr_core::RouteHooks::default();
        let outcome = pipeline::run(&design, &cfg, hooks, false).unwrap();
        let fp = |cfg: &DgrConfig| {
            let phases = Default::default();
            pipeline::ledger_record("route", "d", &design, cfg, &outcome, phases).config_fp
        };

        type Change = fn(&mut DgrConfig);
        let changes: [(&str, Change); 18] = [
            ("weights.wirelength", |c| c.weights.wirelength = 1.0),
            ("weights.via", |c| c.weights.via = 2.0),
            ("weights.overflow", |c| c.weights.overflow = 1.0),
            ("iterations", |c| c.iterations = 2),
            ("learning_rate", |c| c.learning_rate = 0.1),
            ("initial_temperature", |c| c.initial_temperature = 0.5),
            ("temperature_decay", |c| c.temperature_decay = 1.0),
            ("activation", |c| c.activation = Activation::Relu),
            ("overflow_scale", |c| c.overflow_scale = 2.0),
            ("gumbel_noise", |c| c.gumbel_noise = false),
            ("extraction", |c| c.extraction = ExtractionMode::Argmax),
            ("candidates.max_candidates", |c| {
                c.candidates.max_candidates = 5
            }),
            ("candidates.seed", |c| c.candidates.seed = 1),
            ("candidates.shallow_light", |c| {
                c.candidates.shallow_light = Some(0.5)
            }),
            ("patterns.z_stride", |c| c.patterns.z_stride = Some(4)),
            ("patterns.c_detour", |c| c.patterns.c_detour = Some(2)),
            ("extraction_rounds", |c| c.extraction_rounds = 0),
            ("adaptive_rounds", |c| c.adaptive_rounds = 2),
        ];
        let base = fp(&cfg);
        for (field, change) in changes {
            let mut changed = cfg.clone();
            change(&mut changed);
            assert_ne!(fp(&changed), base, "{field} leaves config_fp unchanged");
        }
        let mut clamped = cfg.clone();
        clamped.candidates.clamp = Some(dgr_grid::Rect::new(Point::new(0, 0), Point::new(5, 5)));
        assert_eq!(fp(&clamped), base, "the candidate clamp moves config_fp");
        let reseeded = DgrConfig { seed: 9, ..cfg };
        assert_eq!(fp(&reseeded), base, "the seed moves config_fp");
    }
}
