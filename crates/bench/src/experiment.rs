//! The paper's experiments as data.
//!
//! A [`Spec`] is cases × rows of routers × columns, and [`run`] is the one
//! loop every table and figure but Table 1 goes through: it generates
//! each case, puts every router of every row through
//! [`dgr_post::pipeline`] — so DGR and the baselines are routed, refined,
//! assigned and timed the same way — and prints the rows. The specs
//! themselves, and Table 1 (a seed and hyper-parameter search of raw DGR
//! against the ILP, not a set of routers), are in `main.rs`.

use std::collections::BTreeMap;
use std::error::Error;

use dgr_baseline::{LagrangianRouter, SequentialRouter, SprouteRouter};
use dgr_core::{DgrConfig, RouteHooks};
use dgr_grid::Design;
use dgr_io::{CatalogCase, IspdLikeConfig, IspdLikeGenerator};
use dgr_post::pipeline::{self, Outcome};

/// What a table run fails with.
pub type BenchResult<T> = Result<T, Box<dyn Error>>;

/// A router of a row: DGR under a configuration (its seed included), or
/// one of the baselines.
pub enum Router {
    /// DGR through [`pipeline::run`].
    Dgr(DgrConfig),
    /// The CUGR2-style sequential router.
    Sequential,
    /// The SPRoute-style soft-capacity router.
    Sproute,
    /// The Lagrangian pathfinding router.
    Lagrangian,
}

impl Router {
    /// Routes and finishes `design`: [`pipeline::run`] for DGR,
    /// [`pipeline::run_with`] for a baseline.
    ///
    /// # Errors
    ///
    /// The router's or a post pass's error.
    pub fn run(&self, design: &Design) -> BenchResult<Outcome> {
        let hooks = &mut RouteHooks::default();
        let route = match self {
            Router::Dgr(cfg) => return Ok(pipeline::run(design, cfg, hooks, false)?),
            Router::Sequential => |d: &Design| SequentialRouter.route(d),
            Router::Sproute => |d: &Design| SprouteRouter.route(d),
            Router::Lagrangian => |d: &Design| LagrangianRouter.route(d),
        };
        pipeline::run_with(design, false, |d| Ok(route(d)?))
    }
}

/// One printed line per case: the routers it runs, in order, and the
/// text cells that name it.
pub struct Row {
    /// Cells that name the row (Fig. 6: f, lr, seed).
    pub label: Vec<String>,
    /// The routers, in the order they run; [`metric`] columns index them.
    pub routers: Vec<Router>,
    /// Printed after the last column.
    pub note: &'static str,
}

impl Row {
    /// A row of `routers` named by `label`, with no note.
    pub fn new(label: &[&str], routers: Vec<Router>) -> Self {
        let label = label.iter().map(|s| s.to_string()).collect();
        let note = "";
        Row {
            label,
            routers,
            note,
        }
    }

    /// Runs every router of the row on `design`, in order.
    ///
    /// # Errors
    ///
    /// The first router's error.
    pub fn run(&self, design: &Design) -> BenchResult<Vec<Outcome>> {
        self.routers.iter().map(|r| r.run(design)).collect()
    }
}

/// What a column reads: one row on one case.
pub struct Line<'a> {
    /// The case's name.
    pub case: &'a str,
    /// The generated case.
    pub design: &'a Design,
    /// The row's label cells.
    pub label: &'a [String],
    /// One outcome per router of the row.
    pub runs: &'a [Outcome],
}

/// One column: header, field width and the cell of a line.
pub struct Column {
    /// Header; also the key of the column's sum in [`Totals`].
    pub header: &'static str,
    /// Field width of header and cells; negative left-aligns, as
    /// printf's `%-12s`.
    pub width: isize,
    /// The cell's text.
    pub cell: Box<dyn Fn(&Line) -> String>,
}

impl Column {
    /// A column of `cell`s under `header`.
    pub fn new(
        header: &'static str,
        width: isize,
        cell: impl Fn(&Line) -> String + 'static,
    ) -> Self {
        let cell = Box::new(cell);
        Column {
            header,
            width,
            cell,
        }
    }

    fn pad(&self, cell: &str) -> String {
        let width = self.width.unsigned_abs();
        if self.width < 0 {
            format!("{cell:<width$}")
        } else {
            format!("{cell:>width$}")
        }
    }
}

/// A column function of an [`Outcome`].
pub type Metric = fn(&Outcome) -> f64;

/// `of` of the row's router `run`, printed with `digits` decimals.
pub fn metric(header: &'static str, width: isize, digits: usize, run: usize, of: Metric) -> Column {
    Column::new(header, width, move |l| {
        format!("{:.*}", digits, of(&l.runs[run]))
    })
}

/// One [`metric`] column per router of the row: `headers[i]` heads
/// router `i`'s.
pub fn across(headers: &[&'static str], width: isize, digits: usize, of: Metric) -> Vec<Column> {
    let column = |(run, &header)| metric(header, width, digits, run, of);
    headers.iter().enumerate().map(column).collect()
}

/// Sums of every column whose cells are numbers, as printed, by header.
pub type Totals = BTreeMap<&'static str, f64>;

/// One table or figure.
pub struct Spec {
    /// Named generator configurations, already sized for the run.
    pub cases: Vec<(&'static str, IspdLikeConfig)>,
    /// The rows run on every case.
    pub rows: Vec<Row>,
    /// Column groups, separated by ` | `.
    pub columns: Vec<Vec<Column>>,
    /// The heading of a case's block. A block — heading, column headers,
    /// rows — starts whenever the heading differs from the previous
    /// case's, and ends in a blank line.
    pub heading: fn(&str, &Design) -> String,
    /// Printed after the last block: ratios of [`Totals`], expectations.
    pub footer: fn(&Totals) -> String,
}

impl Spec {
    /// `cells`, one per column in order, padded and joined.
    fn line(&self, cells: &[String]) -> String {
        let mut cells = cells.iter();
        let mut groups = Vec::new();
        for group in &self.columns {
            let padded: Vec<_> = group
                .iter()
                .zip(&mut cells)
                .map(|(c, s)| c.pad(s))
                .collect();
            groups.push(padded.join(" "));
        }
        groups.join(" | ")
    }
}

/// The one experiment loop: generates each case of `spec`, runs each
/// row's routers on it and prints the rows, then the footer.
///
/// # Errors
///
/// A generator's or a router's error.
pub fn run(spec: &Spec) -> BenchResult<()> {
    let columns = || spec.columns.iter().flatten();
    let mut totals = Totals::new();
    let mut heading = None;
    for (case, config) in &spec.cases {
        let design = &IspdLikeGenerator::new(config.clone()).generate()?;
        let this = (spec.heading)(case, design);
        if heading.as_ref() != Some(&this) {
            let headers: Vec<_> = columns().map(|c| c.header.to_string()).collect();
            let gap = if heading.is_some() { "\n" } else { "" };
            println!("{gap}{this}\n{}", spec.line(&headers));
            heading = Some(this);
        }
        for row in &spec.rows {
            let (label, runs) = (&row.label[..], &row.run(design)?[..]);
            let line = Line {
                case,
                design,
                label,
                runs,
            };
            let cells: Vec<_> = columns().map(|c| (c.cell)(&line)).collect();
            println!("{}{}", spec.line(&cells), row.note);
            for (c, cell) in columns().zip(&cells) {
                if let Ok(v) = cell.parse::<f64>() {
                    *totals.entry(c.header).or_default() += v;
                }
            }
        }
    }
    println!("\n{}", (spec.footer)(&totals));
    Ok(())
}

/// Catalog cases by name and generator configuration, shrunk by `--fast`
/// ([`IspdLikeConfig::fast`]).
pub fn catalog(cases: Vec<CatalogCase>, fast: bool) -> Vec<(&'static str, IspdLikeConfig)> {
    let sized = |c: CatalogCase| (c.name, if fast { c.config.fast() } else { c.config });
    cases.into_iter().map(sized).collect()
}

/// A DGR config sized for the experiment scale: the paper's 1000
/// iterations for full runs, 200 for `--fast`.
pub fn dgr_config(fast: bool, seed: u64) -> DgrConfig {
    let iterations = if fast { 200 } else { 1000 };
    DgrConfig {
        iterations,
        seed,
        ..DgrConfig::default()
    }
}

/// Overflowed g-cell edges of the 2D solution (the paper's "# G-cell
/// edges w/ overflow" column, CUGR2 metric).
pub fn overflow_edges(o: &Outcome) -> f64 {
    o.solution.metrics.overflow.overflowed_edges as f64
}

/// Total wirelength (edge units).
pub fn wirelength(o: &Outcome) -> f64 {
    o.solution.metrics.total_wirelength as f64
}

/// Vias after layer assignment ([`Outcome::vias`]).
pub fn vias(o: &Outcome) -> f64 {
    o.vias() as f64
}

/// The Fig. 6 weighted overflow `10·n₁ + 1000·n₂ + 10000·peak`; n₁, the
/// nets with 3D overflow, is 0 without a layer assignment.
pub fn weighted_overflow(o: &Outcome) -> f64 {
    let n1 = o.post.assigned.as_ref().map_or(0, |a| a.overflowed_nets);
    o.solution.metrics.overflow.weighted(n1)
}

/// Routing plus refinement, in seconds ([`Outcome::route_time`]).
pub fn route_secs(o: &Outcome) -> f64 {
    o.route_time.as_secs_f64()
}

/// `other / base`, guarded against zero.
pub fn ratio(other: f64, base: f64) -> f64 {
    match (other, base) {
        (0.0, 0.0) => 1.0,
        (_, 0.0) => f64::INFINITY,
        _ => other / base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The loop's rows are the pipeline's outcomes: a DGR router is
    /// `pipeline::run`, a baseline `pipeline::run_with` over its `route`.
    #[test]
    fn a_rows_runs_are_the_pipelines() {
        let design = IspdLikeGenerator::new(IspdLikeConfig {
            num_nets: 60,
            width: 32,
            height: 32,
            ..IspdLikeConfig::default()
        })
        .generate()
        .unwrap();
        let mut cfg = dgr_config(true, 0);
        cfg.iterations = 60;
        let row = Row::new(&[], vec![Router::Dgr(cfg.clone()), Router::Sequential]);
        let runs = row.run(&design).unwrap();

        let dgr = pipeline::run(&design, &cfg, &mut RouteHooks::default(), false).unwrap();
        let seq: Outcome = pipeline::run_with::<Box<dyn Error>, _>(&design, false, |d| {
            Ok(SequentialRouter.route(d)?)
        })
        .unwrap();
        for (row, direct) in runs.iter().zip([&dgr, &seq]) {
            assert_eq!(row.solution.to_text(), direct.solution.to_text());
            assert_eq!(row.vias(), direct.vias());
            assert_eq!(weighted_overflow(row), weighted_overflow(direct));
        }
        assert!(wirelength(&dgr) > 0.0 && vias(&dgr) > 0.0);
        assert!(runs[1].final_loss.is_nan() && !runs[0].final_loss.is_nan());
    }

    #[test]
    fn ratio_guards_zero() {
        assert_eq!(ratio(0.0, 0.0), 1.0);
        assert_eq!(ratio(5.0, 0.0), f64::INFINITY);
        assert_eq!(ratio(6.0, 3.0), 2.0);
    }
}
