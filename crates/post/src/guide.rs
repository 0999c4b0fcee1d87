//! Route-guide output — what global routing hands to a detailed router.

use dgr_grid::Point;

use crate::assign::Assigned3d;

/// A 3D routing guide: per net, a list of layer-tagged g-cell boxes that
/// the detailed router must stay inside.
///
/// The text format mirrors the ISPD/CUGR guide convention:
///
/// ```text
/// <net name>
/// (
/// x_lo y_lo x_hi y_hi layer
/// ...
/// )
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteGuide {
    /// `(net name, boxes)` per net, in input order.
    pub nets: Vec<(String, Vec<GuideBox>)>,
}

/// One guide box on a layer (inclusive g-cell coordinates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuideBox {
    /// Lower-left corner.
    pub lo: Point,
    /// Upper-right corner.
    pub hi: Point,
    /// Layer index.
    pub layer: u32,
}

impl RouteGuide {
    /// Builds guides from a layer assignment: one box per wire segment
    /// plus one single-cell box per via crossing.
    pub fn from_assignment(design: &dgr_grid::Design, assigned: &Assigned3d) -> Self {
        let mut nets = Vec::with_capacity(assigned.nets.len());
        for net3d in &assigned.nets {
            let name = design.nets[net3d.net].name.clone();
            let mut boxes = Vec::with_capacity(net3d.segments.len());
            for s in &net3d.segments {
                let lo = Point::new(s.a.x.min(s.b.x), s.a.y.min(s.b.y));
                let hi = Point::new(s.a.x.max(s.b.x), s.a.y.max(s.b.y));
                boxes.push(GuideBox {
                    lo,
                    hi,
                    layer: s.layer,
                });
            }
            nets.push((name, boxes));
        }
        RouteGuide { nets }
    }

    /// Serializes to the ISPD-style text format: every number is written
    /// digit by digit into one buffer reserved from the box count.
    pub fn to_text(&self) -> String {
        // a box line is five numbers, most of them of three digits or fewer
        let names: usize = self.nets.iter().map(|(name, _)| name.len() + 5).sum();
        let mut out = String::with_capacity(names + 20 * self.num_boxes());
        for (name, boxes) in &self.nets {
            out.push_str(name);
            out.push_str("\n(\n");
            for b in boxes {
                for coordinate in [b.lo.x, b.lo.y, b.hi.x, b.hi.y] {
                    push_decimal(&mut out, i64::from(coordinate));
                    out.push(' ');
                }
                push_decimal(&mut out, i64::from(b.layer));
                out.push('\n');
            }
            out.push_str(")\n");
        }
        out
    }

    /// Total number of guide boxes.
    pub fn num_boxes(&self) -> usize {
        self.nets.iter().map(|(_, b)| b.len()).sum()
    }
}

/// Appends `v` in decimal, as `{}` would print it.
fn push_decimal(out: &mut String, v: i64) {
    let mut digits = [0u8; 20];
    let mut first = digits.len();
    let mut rest = v.unsigned_abs();
    loop {
        first -= 1;
        digits[first] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if v < 0 {
        out.push('-');
    }
    out.extend(digits[first..].iter().map(|&d| char::from(d)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::{Net3d, Segment3d};

    #[test]
    fn text_equals_the_format_spelling() {
        let values = [0, 9, 10, 99, 100, 32_767, 2_147_483_647, -1, -2_147_483_648];
        let mut nets = Vec::new();
        for (i, &x) in values.iter().enumerate() {
            let boxes = values
                .iter()
                .map(|&y| GuideBox {
                    lo: Point::new(x, y),
                    hi: Point::new(y, x),
                    layer: [0, 8, 10, u32::MAX][i % 4],
                })
                .collect();
            nets.push((format!("net{i}"), boxes));
        }
        nets.push(("empty".to_string(), Vec::new()));
        let guide = RouteGuide { nets };
        let mut want = String::new();
        for (name, boxes) in &guide.nets {
            want.push_str(&format!("{name}\n(\n"));
            for b in boxes {
                want.push_str(&format!(
                    "{} {} {} {} {}\n",
                    b.lo.x, b.lo.y, b.hi.x, b.hi.y, b.layer
                ));
            }
            want.push_str(")\n");
        }
        assert!(want.contains("\n0 32767 32767 0 0\n") && want.contains("\n9 10 10 9 8\n"));
        assert_eq!(guide.to_text(), want);
    }

    fn toy_assignment() -> Assigned3d {
        Assigned3d {
            nets: vec![Net3d {
                net: 0,
                segments: vec![
                    Segment3d {
                        a: Point::new(0, 0),
                        b: Point::new(4, 0),
                        layer: 0,
                    },
                    Segment3d {
                        a: Point::new(4, 0),
                        b: Point::new(4, 3),
                        layer: 1,
                    },
                ],
                vias: 1,
            }],
            total_vias: 1,
            overflowed_edges3d: 0,
            total_overflow3d: 0.0,
            peak_overflow3d: 0.0,
            overflowed_nets: 0,
        }
    }

    #[test]
    fn guide_text_round_shape() {
        let grid = dgr_grid::GcellGrid::new(8, 8).unwrap();
        let cap = dgr_grid::CapacityBuilder::uniform(&grid, 1.0)
            .build(&grid)
            .unwrap();
        let design = dgr_grid::Design::new(
            grid,
            cap,
            vec![dgr_grid::Net::new(
                "netA",
                vec![Point::new(0, 0), Point::new(4, 3)],
            )],
            5,
        )
        .unwrap();
        let guide = RouteGuide::from_assignment(&design, &toy_assignment());
        assert_eq!(guide.num_boxes(), 2);
        let text = guide.to_text();
        assert!(text.starts_with("netA\n(\n"));
        assert!(text.contains("0 0 4 0 0\n"));
        assert!(text.contains("4 0 4 3 1\n"));
        assert!(text.trim_end().ends_with(")"));
    }

    #[test]
    fn boxes_normalize_corner_order() {
        let grid = dgr_grid::GcellGrid::new(8, 8).unwrap();
        let cap = dgr_grid::CapacityBuilder::uniform(&grid, 1.0)
            .build(&grid)
            .unwrap();
        let design = dgr_grid::Design::new(
            grid,
            cap,
            vec![dgr_grid::Net::new("n", vec![Point::new(0, 0)])],
            5,
        )
        .unwrap();
        let assigned = Assigned3d {
            nets: vec![Net3d {
                net: 0,
                segments: vec![Segment3d {
                    a: Point::new(5, 2),
                    b: Point::new(1, 2),
                    layer: 2,
                }],
                vias: 0,
            }],
            total_vias: 0,
            overflowed_edges3d: 0,
            total_overflow3d: 0.0,
            peak_overflow3d: 0.0,
            overflowed_nets: 0,
        };
        let guide = RouteGuide::from_assignment(&design, &assigned);
        let b = guide.nets[0].1[0];
        assert!(b.lo.x <= b.hi.x && b.lo.y <= b.hi.y);
    }
}
