//! Placement result: rectangles on a die.

use crate::slicing::{Module, PolishElem, PolishExpr};

/// An axis-aligned placed rectangle, in mm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Left edge.
    pub x: f64,
    /// Bottom edge.
    pub y: f64,
    /// Width.
    pub w: f64,
    /// Height.
    pub h: f64,
}

impl Rect {
    /// Center point of the rectangle.
    pub fn center(&self) -> (f64, f64) {
        (self.x + self.w / 2.0, self.y + self.h / 2.0)
    }

    /// Returns `true` if the interiors of `self` and `other` intersect.
    pub fn overlaps(&self, other: &Rect) -> bool {
        const EPS: f64 = 1e-9;
        self.x + EPS < other.x + other.w
            && other.x + EPS < self.x + self.w
            && self.y + EPS < other.y + other.h
            && other.y + EPS < self.y + self.h
    }

    /// Rectangle area.
    pub fn area(&self) -> f64 {
        self.w * self.h
    }
}

/// A complete floorplan: one placed rectangle per module plus the die
/// bounding box.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    rects: Vec<Rect>,
    die_w: f64,
    die_h: f64,
}

impl Placement {
    /// Number of placed rectangles.
    pub fn rect_count(&self) -> usize {
        self.rects.len()
    }

    /// Placed rectangle of module `idx`.
    pub fn rect(&self, idx: usize) -> Rect {
        self.rects[idx]
    }

    /// All rectangles, indexed by module.
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// Center of module `idx` — the attachment point for NoC wiring.
    pub fn center(&self, idx: usize) -> (f64, f64) {
        self.rects[idx].center()
    }

    /// Die dimensions `(width, height)` in mm.
    pub fn die(&self) -> (f64, f64) {
        (self.die_w, self.die_h)
    }

    /// Die area in mm².
    pub fn die_area_mm2(&self) -> f64 {
        self.die_w * self.die_h
    }

    /// Fraction of the die covered by modules (0..1).
    pub fn utilization(&self) -> f64 {
        if self.die_area_mm2() <= 0.0 {
            return 0.0;
        }
        self.rects.iter().map(Rect::area).sum::<f64>() / self.die_area_mm2()
    }

    /// Returns `true` if no two modules overlap (always holds for slicing
    /// floorplans; exposed for property tests).
    pub fn is_overlap_free(&self) -> bool {
        for i in 0..self.rects.len() {
            for j in (i + 1)..self.rects.len() {
                if self.rects[i].overlaps(&self.rects[j]) {
                    return false;
                }
            }
        }
        true
    }
}

/// Reusable scratch for evaluating Polish expressions: the annealer keeps
/// one per chain and evaluates every move into the same buffers, so a move
/// costs two linear passes and no allocation.
///
/// Slicing semantics: `a b V` places `b` to the right of `a`; `a b H`
/// stacks `b` on top of `a`. Subtree bounding boxes are the max/sum of the
/// child dimensions (no shape curves — modules may rotate via the annealer's
/// rotation flags instead).
#[derive(Debug)]
pub(crate) struct Slicer {
    /// Per element: bounding box `(w, h)` of the subtree rooted there.
    dims: Vec<(f64, f64)>,
    /// Per operator element: index of its left child (the right child of
    /// the operator at `i` is always `i - 1`).
    left: Vec<usize>,
    /// Per element: lower-left corner of its subtree.
    origin: Vec<(f64, f64)>,
    /// Operand stack of the post-order pass.
    stack: Vec<usize>,
    /// Per module: its placed rectangle.
    rects: Vec<Rect>,
}

impl Slicer {
    /// Scratch sized for expressions over `n` modules.
    pub(crate) fn new(n: usize) -> Self {
        let len = (2 * n).saturating_sub(1);
        let zero = Rect {
            x: 0.0,
            y: 0.0,
            w: 0.0,
            h: 0.0,
        };
        Slicer {
            dims: vec![(0.0, 0.0); len],
            left: vec![0; len],
            origin: vec![(0.0, 0.0); len],
            stack: Vec::with_capacity(n),
            rects: vec![zero; n],
        }
    }

    /// Places every module of `expr`, leaving the rectangles in
    /// [`Slicer::rects`], and returns the die `(width, height)`.
    ///
    /// A post-order pass computes each subtree's bounding box; a top-down
    /// pass (descending element index, so parents come before children)
    /// hands each subtree its lower-left corner.
    pub(crate) fn evaluate(&mut self, expr: &PolishExpr, modules: &[Module]) -> (f64, f64) {
        debug_assert_eq!(
            self.rects.len(),
            modules.len(),
            "scratch sized for another n"
        );
        self.stack.clear();
        for (i, e) in expr.elems.iter().enumerate() {
            match e {
                PolishElem::Operand(m) => self.dims[i] = expr.module_shape(modules, *m),
                op => {
                    self.stack.pop().expect("valid polish expression");
                    let a = self.stack.pop().expect("valid polish expression");
                    let (aw, ah) = self.dims[a];
                    let (bw, bh) = self.dims[i - 1];
                    self.dims[i] = match op {
                        PolishElem::V => (aw + bw, ah.max(bh)),
                        _ => (aw.max(bw), ah + bh),
                    };
                    self.left[i] = a;
                }
            }
            self.stack.push(i);
        }
        let root = self.stack.pop().expect("non-empty expression");
        assert!(
            self.stack.is_empty(),
            "expression must reduce to a single tree"
        );

        self.origin[root] = (0.0, 0.0);
        for i in (0..=root).rev() {
            let (x, y) = self.origin[i];
            match expr.elems[i] {
                PolishElem::Operand(m) => {
                    let (w, h) = self.dims[i];
                    self.rects[m] = Rect { x, y, w, h };
                }
                op => {
                    let a = self.left[i];
                    let (aw, ah) = self.dims[a];
                    self.origin[a] = (x, y);
                    self.origin[i - 1] = match op {
                        PolishElem::V => (x + aw, y),
                        _ => (x, y + ah),
                    };
                }
            }
        }
        self.dims[root]
    }

    /// Rectangles of the last [`Slicer::evaluate`], indexed by module.
    pub(crate) fn rects(&self) -> &[Rect] {
        &self.rects
    }
}

/// Evaluates a Polish expression into a placement (see [`Slicer`]).
pub(crate) fn evaluate(expr: &PolishExpr, modules: &[Module]) -> Placement {
    let mut slicer = Slicer::new(modules.len());
    let (die_w, die_h) = slicer.evaluate(expr, modules);
    Placement {
        rects: slicer.rects,
        die_w,
        die_h,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slicing::Module;

    fn unit_modules(n: usize) -> Vec<Module> {
        (0..n)
            .map(|i| Module::new(format!("m{i}"), 1.0, 0))
            .collect()
    }

    #[test]
    fn two_module_vertical_cut() {
        let modules = unit_modules(2);
        let expr = PolishExpr {
            elems: vec![
                PolishElem::Operand(0),
                PolishElem::Operand(1),
                PolishElem::V,
            ],
            rotated: vec![false; 2],
        };
        let p = evaluate(&expr, &modules);
        assert_eq!(p.die(), (2.0, 1.0));
        assert_eq!(p.rect(1).x, 1.0);
        assert!(p.is_overlap_free());
        assert!((p.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn two_module_horizontal_cut() {
        let modules = unit_modules(2);
        let expr = PolishExpr {
            elems: vec![
                PolishElem::Operand(0),
                PolishElem::Operand(1),
                PolishElem::H,
            ],
            rotated: vec![false; 2],
        };
        let p = evaluate(&expr, &modules);
        assert_eq!(p.die(), (1.0, 2.0));
        assert_eq!(p.rect(1).y, 1.0);
    }

    #[test]
    fn initial_expression_places_everything() {
        let modules = unit_modules(7);
        let expr = PolishExpr::initial(7);
        let p = evaluate(&expr, &modules);
        assert_eq!(p.rect_count(), 7);
        assert!(p.is_overlap_free());
        assert!(p.utilization() > 0.0);
        // All modules inside the die.
        let (dw, dh) = p.die();
        for r in p.rects() {
            assert!(r.x >= -1e-9 && r.y >= -1e-9);
            assert!(r.x + r.w <= dw + 1e-9 && r.y + r.h <= dh + 1e-9);
        }
    }

    #[test]
    fn rect_overlap_detection() {
        let a = Rect {
            x: 0.0,
            y: 0.0,
            w: 2.0,
            h: 2.0,
        };
        let b = Rect {
            x: 1.0,
            y: 1.0,
            w: 2.0,
            h: 2.0,
        };
        let c = Rect {
            x: 2.0,
            y: 0.0,
            w: 1.0,
            h: 1.0,
        };
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c), "touching edges do not overlap");
        assert_eq!(a.center(), (1.0, 1.0));
    }
}
