//! Independent route-guide validator.
//!
//! Parses the guide text on its own (no `dgr-post`) and checks it against
//! the generated design: every net present exactly once, every box inside
//! the grid on a layer `< layers`, each net's boxes one connected set that
//! covers every pin g-cell.
//!
//! Connectivity: the guide format carries one box per wire segment and no
//! box for a via, so a net that changes from layer 0 to layer 3 at a
//! g-cell shows two boxes that share that g-cell and nothing between
//! them. Two boxes of a net are therefore taken as connected when they
//! share at least one g-cell in 2D, whatever their layers.

use std::collections::HashMap;

use crate::gen::GeneratedDesign;

/// One parsed guide box (inclusive g-cell coordinates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GuideBox {
    x0: i32,
    y0: i32,
    x1: i32,
    y1: i32,
}

impl GuideBox {
    fn shares_cell(&self, o: &GuideBox) -> bool {
        self.x0 <= o.x1 && o.x0 <= self.x1 && self.y0 <= o.y1 && o.y0 <= self.y1
    }

    fn covers(&self, (x, y): (i32, i32)) -> bool {
        self.x0 <= x && x <= self.x1 && self.y0 <= y && y <= self.y1
    }
}

/// What a valid guide contained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuideStats {
    pub nets: usize,
    pub boxes: usize,
}

/// Checks `guide` against `design`; the error names the first defect.
pub fn validate_guide(design: &GeneratedDesign, guide: &str) -> Result<GuideStats, String> {
    let index: HashMap<&str, usize> = design
        .nets
        .iter()
        .enumerate()
        .map(|(i, n)| (n.name.as_str(), i))
        .collect();
    let mut seen = vec![false; design.nets.len()];
    let mut total_boxes = 0usize;

    let mut lines = guide.lines().enumerate();
    while let Some((ln, name)) = lines.next() {
        let name = name.trim();
        if name.is_empty() {
            continue;
        }
        let &net = index
            .get(name)
            .ok_or_else(|| format!("line {}: net `{name}` is not in the design", ln + 1))?;
        if std::mem::replace(&mut seen[net], true) {
            return Err(format!("line {}: net `{name}` appears twice", ln + 1));
        }
        match lines.next() {
            Some((_, l)) if l.trim() == "(" => {}
            _ => return Err(format!("line {}: expected `(` after `{name}`", ln + 2)),
        }
        let mut boxes: Vec<GuideBox> = Vec::new();
        loop {
            let (ln, l) = lines
                .next()
                .ok_or_else(|| format!("net `{name}`: guide ends inside its box list"))?;
            let l = l.trim();
            if l == ")" {
                break;
            }
            let f: Vec<i64> = l
                .split_whitespace()
                .map(str::parse)
                .collect::<Result<_, _>>()
                .map_err(|_| format!("line {}: box is not five integers: `{l}`", ln + 1))?;
            let [x0, y0, x1, y1, layer] = f[..] else {
                return Err(format!("line {}: box is not five integers: `{l}`", ln + 1));
            };
            if x0 > x1 || y0 > y1 {
                return Err(format!("line {}: box of `{name}` has lo > hi", ln + 1));
            }
            if x0 < 0 || y0 < 0 || x1 >= i64::from(design.width) || y1 >= i64::from(design.height) {
                return Err(format!(
                    "line {}: box of `{name}` leaves the {}x{} grid",
                    ln + 1,
                    design.width,
                    design.height
                ));
            }
            if layer < 0 || layer >= i64::from(design.layers) {
                return Err(format!(
                    "line {}: box of `{name}` is on layer {layer} of {}",
                    ln + 1,
                    design.layers
                ));
            }
            boxes.push(GuideBox {
                x0: x0 as i32,
                y0: y0 as i32,
                x1: x1 as i32,
                y1: y1 as i32,
            });
        }
        total_boxes += boxes.len();

        for &pin in &design.nets[net].pins {
            if !boxes.iter().any(|b| b.covers(pin)) {
                return Err(format!(
                    "net `{name}`: pin ({}, {}) is in no box",
                    pin.0, pin.1
                ));
            }
        }
        // flood from box 0 over shared g-cells; nets have tens of boxes
        let mut reached = vec![false; boxes.len()];
        let mut frontier = vec![0usize];
        reached[0] = true; // a pin is covered, so there is a box 0
        while let Some(i) = frontier.pop() {
            for j in 0..boxes.len() {
                if !reached[j] && boxes[i].shares_cell(&boxes[j]) {
                    reached[j] = true;
                    frontier.push(j);
                }
            }
        }
        if let Some(j) = reached.iter().position(|r| !r) {
            let b = boxes[j];
            return Err(format!(
                "net `{name}`: box {} {} {} {} is not connected to the rest",
                b.x0, b.y0, b.x1, b.y1
            ));
        }
    }
    if let Some(missing) = seen.iter().position(|s| !s) {
        return Err(format!(
            "net `{}` is missing from the guide",
            design.nets[missing].name
        ));
    }
    Ok(GuideStats {
        nets: design.nets.len(),
        boxes: total_boxes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::NetPins;

    fn design() -> GeneratedDesign {
        GeneratedDesign {
            width: 8,
            height: 8,
            layers: 3,
            nets: vec![
                NetPins {
                    name: "a".into(),
                    pins: vec![(0, 0), (4, 3)],
                },
                NetPins {
                    name: "b".into(),
                    pins: vec![(2, 2), (2, 6)],
                },
            ],
            text: String::new(),
            fnv64: 0,
        }
    }

    const GOOD: &str = "a\n(\n0 0 4 0 0\n4 0 4 3 2\n)\nb\n(\n2 2 2 6 1\n)\n";

    #[test]
    fn accepts_a_good_guide() {
        assert_eq!(
            validate_guide(&design(), GOOD),
            Ok(GuideStats { nets: 2, boxes: 3 })
        );
    }

    #[test]
    fn rejects_a_disconnected_net() {
        // both pins covered, but the two boxes share no g-cell
        let g = "a\n(\n0 0 3 0 0\n4 1 4 3 1\n)\nb\n(\n2 2 2 6 1\n)\n";
        let e = validate_guide(&design(), g).unwrap_err();
        assert!(e.contains("not connected"), "{e}");
    }

    #[test]
    fn rejects_a_missing_pin() {
        let g = "a\n(\n0 0 4 0 0\n4 0 4 2 1\n)\nb\n(\n2 2 2 6 1\n)\n";
        let e = validate_guide(&design(), g).unwrap_err();
        assert!(e.contains("pin (4, 3)"), "{e}");
    }

    #[test]
    fn rejects_an_out_of_grid_box() {
        let g = GOOD.replace("2 2 2 6 1", "2 2 2 8 1");
        let e = validate_guide(&design(), &g).unwrap_err();
        assert!(e.contains("leaves the 8x8 grid"), "{e}");
    }

    #[test]
    fn rejects_an_illegal_layer() {
        let g = GOOD.replace("4 0 4 3 2", "4 0 4 3 3");
        let e = validate_guide(&design(), &g).unwrap_err();
        assert!(e.contains("layer 3 of 3"), "{e}");
    }

    #[test]
    fn rejects_missing_duplicate_and_unknown_nets() {
        let missing = "a\n(\n0 0 4 0 0\n4 0 4 3 2\n)\n";
        assert!(validate_guide(&design(), missing)
            .unwrap_err()
            .contains("`b` is missing"));
        let twice = format!("{GOOD}b\n(\n2 2 2 6 1\n)\n");
        assert!(validate_guide(&design(), &twice)
            .unwrap_err()
            .contains("appears twice"));
        let unknown = format!("{GOOD}c\n(\n)\n");
        assert!(validate_guide(&design(), &unknown)
            .unwrap_err()
            .contains("not in the design"));
    }

    #[test]
    fn rejects_truncated_and_malformed_text() {
        let truncated = &GOOD[..GOOD.len() - 2];
        assert!(validate_guide(&design(), truncated).is_err());
        let garbled = GOOD.replace("0 0 4 0 0", "0 0 4 zero 0");
        assert!(validate_guide(&design(), &garbled)
            .unwrap_err()
            .contains("not five integers"));
        assert!(validate_guide(&design(), "").is_err());
    }
}
