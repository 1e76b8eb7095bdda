//! The elaborated design: netlist, top-level interface, and the resolved
//! instance/layout tree consumed by `zeus-layout`.

use crate::netlist::{NetId, Netlist};
use crate::shape::Shape;
use std::collections::HashMap;
use zeus_sema::Value;
use zeus_syntax::ast::Mode;
use zeus_syntax::diag::{Diagnostic, Diagnostics};
use zeus_syntax::span::Span;

/// A port of the top-level component: one formal parameter, flattened.
#[derive(Debug, Clone)]
pub struct Port {
    /// Parameter name.
    pub name: String,
    /// Passing mode.
    pub mode: Mode,
    /// Resolved shape.
    pub shape: Shape,
    /// The nets of the port bits in natural order (already canonical).
    pub nets: Vec<NetId>,
}

impl Port {
    /// Width in bits.
    pub fn width(&self) -> usize {
        self.nets.len()
    }

    /// Checks that a whole-port drive gives one value per bit.
    ///
    /// # Errors
    ///
    /// The width-mismatch diagnostic every simulator reports.
    pub fn check_width(&self, given: usize) -> Result<(), Diagnostic> {
        if given == self.width() {
            return Ok(());
        }
        Err(Diagnostic::error(
            Span::dummy(),
            format!(
                "port '{}' has {} bits but {given} values were given",
                self.name,
                self.width()
            ),
        ))
    }

    /// Encodes an unsigned number as this port's bits, LSB at bit 1
    /// (like `BIN`).
    ///
    /// # Errors
    ///
    /// A diagnostic when `v` does not fit the port's width.
    pub fn encode(&self, v: u64) -> Result<Vec<Value>, Diagnostic> {
        let width = self.width();
        if width < 64 && v >> width != 0 {
            return Err(Diagnostic::error(
                Span::dummy(),
                format!(
                    "value {v} does not fit in the {width}-bit port '{}'",
                    self.name
                ),
            ));
        }
        Ok((0..width)
            .map(|i| Value::from_bool(i < 64 && (v >> i) & 1 == 1))
            .collect())
    }
}

/// Looks up port `name` among `ports`, returning its index too: the one
/// lookup every simulator drives ports through, so an unknown name reads
/// the same on each engine.
///
/// # Errors
///
/// A diagnostic naming the unknown port.
pub fn find_port<'a>(ports: &'a [Port], name: &str) -> Result<(usize, &'a Port), Diagnostic> {
    ports
        .iter()
        .enumerate()
        .find(|(_, p)| p.name == name)
        .ok_or_else(|| Diagnostic::error(Span::dummy(), format!("no port named '{name}'")))
}

/// The eight directions of separation of the layout language (§6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// `toptobottom`
    TopToBottom,
    /// `bottomtotop`
    BottomToTop,
    /// `lefttoright`
    LeftToRight,
    /// `righttoleft`
    RightToLeft,
    /// `toplefttobottomright`
    TopLeftToBottomRight,
    /// `bottomrighttotopleft`
    BottomRightToTopLeft,
    /// `toprighttobottomleft`
    TopRightToBottomLeft,
    /// `bottomlefttotopright`
    BottomLeftToTopRight,
}

impl Direction {
    /// Parses a direction-of-separation identifier.
    pub fn from_name(name: &str) -> Option<Direction> {
        Some(match name {
            "toptobottom" => Direction::TopToBottom,
            "bottomtotop" => Direction::BottomToTop,
            "lefttoright" => Direction::LeftToRight,
            "righttoleft" => Direction::RightToLeft,
            "toplefttobottomright" => Direction::TopLeftToBottomRight,
            "bottomrighttotopleft" => Direction::BottomRightToTopLeft,
            "toprighttobottomleft" => Direction::TopRightToBottomLeft,
            "bottomlefttotopright" => Direction::BottomLeftToTopRight,
            _ => return None,
        })
    }
}

/// The seven orientation changes: all of the dihedral group D4 except the
/// identity (§6.3). `Identity` exists for composition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Orientation {
    /// No change (not writable in source).
    #[default]
    Identity,
    /// Counter-clockwise 90°.
    Rotate90,
    /// 180°.
    Rotate180,
    /// Counter-clockwise 270°.
    Rotate270,
    /// Mirror about the horizontal axis (0°).
    Flip0,
    /// Mirror about the 45° diagonal.
    Flip45,
    /// Mirror about the vertical axis (90°).
    Flip90,
    /// Mirror about the 135° diagonal.
    Flip135,
}

impl Orientation {
    /// Parses an orientation-change identifier.
    pub fn from_name(name: &str) -> Option<Orientation> {
        Some(match name {
            "rotate90" => Orientation::Rotate90,
            "rotate180" => Orientation::Rotate180,
            "rotate270" => Orientation::Rotate270,
            "flip0" => Orientation::Flip0,
            "flip45" => Orientation::Flip45,
            "flip90" => Orientation::Flip90,
            "flip135" => Orientation::Flip135,
            _ => return None,
        })
    }

    /// All eight elements of D4, identity first.
    pub const ALL: [Orientation; 8] = [
        Orientation::Identity,
        Orientation::Rotate90,
        Orientation::Rotate180,
        Orientation::Rotate270,
        Orientation::Flip0,
        Orientation::Flip45,
        Orientation::Flip90,
        Orientation::Flip135,
    ];

    fn index(self) -> usize {
        Orientation::ALL
            .iter()
            .position(|&o| o == self)
            .expect("element of ALL")
    }

    /// Composes two orientations: `self.then(other)` transforms points by
    /// `self` first, then `other`. The composition table is derived from
    /// [`Orientation::apply`] so the two can never disagree.
    pub fn then(self, other: Orientation) -> Orientation {
        use std::sync::OnceLock;
        static TABLE: OnceLock<[[Orientation; 8]; 8]> = OnceLock::new();
        let table = TABLE.get_or_init(|| {
            // Sample points that distinguish all eight transforms of a
            // non-square box.
            let (w, h) = (5i64, 3i64);
            let samples = [(0i64, 0i64), (1, 0), (0, 1), (3, 2)];
            let signature = |a: Orientation, b: Orientation| {
                samples.map(|(x, y)| {
                    let (x1, y1, w1, h1) = a.apply(x, y, w, h);
                    b.apply(x1, y1, w1, h1)
                })
            };
            let mut t = [[Orientation::Identity; 8]; 8];
            for &a in &Orientation::ALL {
                for &b in &Orientation::ALL {
                    let sig = signature(a, b);
                    let c = *Orientation::ALL
                        .iter()
                        .find(|&&c| {
                            samples
                                .iter()
                                .zip(&sig)
                                .all(|(&(x, y), &want)| c.apply(x, y, w, h) == want)
                        })
                        .expect("D4 is closed under composition");
                    t[a.index()][b.index()] = c;
                }
            }
            t
        });
        table[self.index()][other.index()]
    }

    /// The inverse element.
    pub fn inverse(self) -> Orientation {
        use Orientation::*;
        match self {
            Rotate90 => Rotate270,
            Rotate270 => Rotate90,
            other => other, // rotations 0/180 and all reflections are involutions
        }
    }

    /// Applies the orientation to a point in a `w × h` box, returning the
    /// transformed point and the new box dimensions `(x', y', w', h')`.
    /// Coordinates: x grows right, y grows down, origin top-left.
    pub fn apply(self, x: i64, y: i64, w: i64, h: i64) -> (i64, i64, i64, i64) {
        use Orientation::*;
        match self {
            Identity => (x, y, w, h),
            // Counter-clockwise rotation by 90°.
            Rotate90 => (y, w - 1 - x, h, w),
            Rotate180 => (w - 1 - x, h - 1 - y, w, h),
            Rotate270 => (h - 1 - y, x, h, w),
            // Mirror about the horizontal axis: y flips.
            Flip0 => (x, h - 1 - y, w, h),
            // Mirror about the vertical axis: x flips.
            Flip90 => (w - 1 - x, y, w, h),
            // Mirror about the main diagonal (45°): transpose.
            Flip45 => (y, x, h, w),
            // Mirror about the anti-diagonal (135°).
            Flip135 => (h - 1 - y, w - 1 - x, h, w),
        }
    }
}

/// A resolved layout statement: all replication/conditional generation has
/// been evaluated; signals are identified by instance keys (local names
/// like `add[3]` or `s[1].comp`) or pin names.
#[derive(Debug, Clone, PartialEq)]
pub enum LayoutItem {
    /// Place one child instance (or pin), optionally re-oriented.
    Place {
        /// Local instance key within the owning component, e.g. `add[2]`.
        key: String,
        /// Optional orientation change.
        orientation: Orientation,
    },
    /// An ORDER group: children separated along `direction` in sequence.
    Order {
        /// Direction of separation.
        direction: Direction,
        /// Ordered items.
        items: Vec<LayoutItem>,
    },
    /// A boundary statement: pins placed on an edge, in order.
    Boundary {
        /// Which edge.
        side: zeus_syntax::ast::Side,
        /// Pin names (formal parameter names) in placement order.
        pins: Vec<String>,
    },
}

/// One elaborated component instance, with its children and resolved
/// layout program.
#[derive(Debug, Clone, Default)]
pub struct InstanceNode {
    /// Local name within the parent, e.g. `add[1]` or `pe[2].comp`.
    pub key: String,
    /// Full hierarchical path, e.g. `top.add[1]`.
    pub path: String,
    /// The component type name (or `<anon>`).
    pub type_name: String,
    /// Resolved layout items of this component's layout blocks (header
    /// boundary statements and pre-BEGIN block), in source order.
    pub layout: Vec<LayoutItem>,
    /// Child instances that were actually elaborated, in creation order.
    pub children: Vec<InstanceNode>,
}

impl InstanceNode {
    /// Finds a direct child by key.
    pub fn child(&self, key: &str) -> Option<&InstanceNode> {
        self.children.iter().find(|c| c.key == key)
    }

    /// Total number of instances in this subtree (including self).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(InstanceNode::size).sum::<usize>()
    }
}

/// A fully elaborated design.
#[derive(Debug, Clone)]
pub struct Design {
    /// The flat semantics graph.
    pub netlist: Netlist,
    /// Name of the top component type.
    pub top_type: String,
    /// Top-level ports in declaration order.
    pub ports: Vec<Port>,
    /// The instance tree rooted at the top component.
    pub instances: InstanceNode,
    /// Non-fatal diagnostics (warnings) produced during elaboration.
    pub warnings: Diagnostics,
    /// The predefined clock signal's net, if the program references CLK.
    pub clk: Option<NetId>,
    /// The predefined reset signal's net, if the program references RSET.
    pub rset: Option<NetId>,
    /// Hierarchical bit name → canonical net (for tracing and tests).
    pub names: HashMap<String, NetId>,
    /// True when the netlist was rewritten by the `zeus-opt` pass
    /// pipeline. Folded into [`crate::hash::design_digest`] so an
    /// optimized design can never share a digest with the elaboration it
    /// came from — checkpoint journals of the two are never spliceable,
    /// even when every pass was a no-op.
    pub optimized: bool,
}

impl Design {
    /// Looks up a port by name.
    pub fn port(&self, name: &str) -> Option<&Port> {
        self.ports.iter().find(|p| p.name == name)
    }

    /// Ports with mode IN (the design's inputs).
    pub fn inputs(&self) -> impl Iterator<Item = &Port> {
        self.ports.iter().filter(|p| p.mode == Mode::In)
    }

    /// Ports with mode OUT (the design's outputs).
    pub fn outputs(&self) -> impl Iterator<Item = &Port> {
        self.ports.iter().filter(|p| p.mode == Mode::Out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Orientation::*;

    const ALL: [Orientation; 8] = [
        Identity, Rotate90, Rotate180, Rotate270, Flip0, Flip45, Flip90, Flip135,
    ];

    #[test]
    fn d4_is_a_group() {
        // Closure is by construction; check identity and inverses.
        for &a in &ALL {
            assert_eq!(a.then(Identity), a);
            assert_eq!(Identity.then(a), a);
            assert_eq!(a.then(a.inverse()), Identity, "{a:?}");
            assert_eq!(a.inverse().then(a), Identity, "{a:?}");
        }
        // Associativity.
        for &a in &ALL {
            for &b in &ALL {
                for &c in &ALL {
                    assert_eq!(a.then(b).then(c), a.then(b.then(c)));
                }
            }
        }
    }

    #[test]
    fn rotations_compose() {
        assert_eq!(Rotate90.then(Rotate90), Rotate180);
        assert_eq!(Rotate90.then(Rotate270), Identity);
        assert_eq!(Rotate180.then(Rotate180), Identity);
    }

    #[test]
    fn point_transform_matches_composition() {
        // Applying a then b must equal applying a.then(b).
        for &a in &ALL {
            for &b in &ALL {
                let (w, h) = (5i64, 3i64);
                for (x, y) in [(0i64, 0i64), (4, 2), (1, 2), (3, 0)] {
                    let (x1, y1, w1, h1) = a.apply(x, y, w, h);
                    let (x2, y2, w2, h2) = b.apply(x1, y1, w1, h1);
                    let (x3, y3, w3, h3) = a.then(b).apply(x, y, w, h);
                    assert_eq!(
                        (x2, y2, w2, h2),
                        (x3, y3, w3, h3),
                        "a={a:?} b={b:?} point=({x},{y})"
                    );
                }
            }
        }
    }

    #[test]
    fn transforms_preserve_box_membership() {
        for &o in &ALL {
            let (w, h) = (4i64, 7i64);
            for x in 0..w {
                for y in 0..h {
                    let (nx, ny, nw, nh) = o.apply(x, y, w, h);
                    assert!(nx >= 0 && nx < nw);
                    assert!(ny >= 0 && ny < nh);
                }
            }
        }
    }

    #[test]
    fn direction_names_round_trip() {
        for name in zeus_syntax::ast::DIRECTIONS {
            assert!(Direction::from_name(name).is_some(), "{name}");
        }
        assert!(Direction::from_name("sideways").is_none());
    }

    #[test]
    fn orientation_names_round_trip() {
        for name in zeus_syntax::ast::ORIENTATIONS {
            assert!(Orientation::from_name(name).is_some(), "{name}");
        }
        assert_eq!(Orientation::from_name("identity"), None);
    }
}
