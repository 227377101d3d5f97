//! Property-based tests on the geometry substrate: rectangle algebra and
//! GDSII round-tripping of arbitrary layouts.

use hifi_geometry::{gds, Element, ElementKind, Layer, Layout, Point, Rect};
use proptest::prelude::*;

fn arb_rect() -> impl Strategy<Value = Rect> {
    (-5000i64..5000, -5000i64..5000, 0i64..3000, 0i64..3000)
        .prop_map(|(x, y, w, h)| Rect::from_origin_size(x, y, w, h))
}

fn arb_layer() -> impl Strategy<Value = Layer> {
    prop::sample::select(Layer::ALL.to_vec())
}

fn arb_kind() -> impl Strategy<Value = ElementKind> {
    prop::sample::select(vec![
        ElementKind::Wire,
        ElementKind::Via,
        ElementKind::Gate,
        ElementKind::ActiveRegion,
        ElementKind::CellCapacitor,
        ElementKind::Filler,
    ])
}

fn arb_element() -> impl Strategy<Value = Element> {
    (
        arb_layer(),
        arb_rect(),
        arb_kind(),
        prop::option::of("[a-zA-Z0-9_]{1,12}"),
    )
        .prop_map(|(layer, rect, kind, label)| {
            let e = Element::new(layer, rect, kind);
            match label {
                Some(l) => e.with_label(l),
                None => e,
            }
        })
}

fn arb_layout() -> impl Strategy<Value = Layout> {
    prop::collection::vec(arb_element(), 0..40).prop_map(|elements| {
        let mut l = Layout::new("prop");
        l.extend(elements);
        l
    })
}

proptest! {
    #[test]
    fn rect_intersection_is_commutative_and_contained(a in arb_rect(), b in arb_rect()) {
        prop_assert_eq!(a.intersection(&b), b.intersection(&a));
        if let Some(i) = a.intersection(&b) {
            prop_assert!(a.contains_rect(&i));
            prop_assert!(b.contains_rect(&i));
            prop_assert!(i.area().value() <= a.area().value());
            prop_assert!(i.area().value() <= b.area().value());
        }
    }

    #[test]
    fn rect_union_contains_both(a in arb_rect(), b in arb_rect()) {
        let u = a.union(&b);
        prop_assert!(u.contains_rect(&a));
        prop_assert!(u.contains_rect(&b));
        prop_assert!(u.area().value() >= a.area().value().max(b.area().value()));
    }

    #[test]
    fn rect_spacing_is_symmetric_and_zero_iff_touching_or_overlapping(
        a in arb_rect(), b in arb_rect()
    ) {
        prop_assert_eq!(a.spacing_to(&b), b.spacing_to(&a));
        if a.intersects(&b) {
            prop_assert_eq!(a.spacing_to(&b), 0);
        }
        if a.spacing_to(&b) > 0 {
            prop_assert!(!a.intersects(&b));
        }
    }

    #[test]
    fn rect_translation_preserves_area(r in arb_rect(), dx in -1000i64..1000, dy in -1000i64..1000) {
        let t = r.translated(dx, dy);
        prop_assert_eq!(t.area(), r.area());
        prop_assert_eq!(t.width(), r.width());
        prop_assert_eq!(t.height(), r.height());
    }

    #[test]
    fn manhattan_distance_triangle_inequality(
        ax in -1000i64..1000, ay in -1000i64..1000,
        bx in -1000i64..1000, by in -1000i64..1000,
        cx in -1000i64..1000, cy in -1000i64..1000,
    ) {
        let (a, b, c) = (Point::new(ax, ay), Point::new(bx, by), Point::new(cx, cy));
        prop_assert!(a.manhattan_distance(c) <= a.manhattan_distance(b) + b.manhattan_distance(c));
        prop_assert_eq!(a.manhattan_distance(b), b.manhattan_distance(a));
    }

    #[test]
    fn gds_round_trip_preserves_any_layout(layout in arb_layout()) {
        let bytes = gds::write_library("prop", std::slice::from_ref(&layout)).expect("encodes");
        let parsed = gds::read_library(&bytes).expect("decodes");
        prop_assert_eq!(parsed.len(), 1);
        // Labels attach by (layer, min-corner); colliding labelled elements
        // may legitimately swap labels, so compare geometry + label multiset.
        let canon = |l: &Layout| {
            let mut v: Vec<String> = l.iter()
                .map(|e| format!("{:?}|{:?}|{:?}|{:?}", e.layer(), e.rect(), e.kind(),
                    e.label().map(str::to_owned)))
                .collect();
            v.sort();
            v
        };
        // Unlabelled geometry must match exactly.
        let geo = |l: &Layout| {
            let mut v: Vec<String> = l.iter()
                .map(|e| format!("{:?}|{:?}|{:?}", e.layer(), e.rect(), e.kind()))
                .collect();
            v.sort();
            v
        };
        prop_assert_eq!(geo(&parsed[0]), geo(&layout));
        // When no two labelled elements share (layer, corner), labels too.
        let mut corners: Vec<(Layer, Point)> = layout.iter()
            .filter(|e| e.label().is_some())
            .map(|e| (e.layer(), e.rect().min()))
            .collect();
        corners.sort();
        let unique = {
            let mut c = corners.clone();
            c.dedup();
            c.len() == corners.len()
        };
        if unique {
            prop_assert_eq!(canon(&parsed[0]), canon(&layout));
        }
    }

    #[test]
    fn gds_decoder_never_panics_on_mutated_streams(
        layout in arb_layout(), flip in 0usize..4096, value in 0u8..=255
    ) {
        let mut bytes = gds::write_library("prop", &[layout]).expect("encodes");
        if !bytes.is_empty() {
            let idx = flip % bytes.len();
            bytes[idx] = value;
        }
        // Any outcome is fine except a panic.
        let _ = gds::read_library(&bytes);
    }
}

/// `gds::read_library` returns from every truncation of a written library
/// and from every 2-byte window (each record length among them)
/// overwritten with an inflated or undersized length: an error or a
/// value, never a panic.
#[test]
fn damaged_gds_libraries_never_panic() {
    let wire = Rect::from_origin_size(0, 0, 18, 900);
    let gate = Rect::from_origin_size(9, 4, 5, 30);
    let mut cell = Layout::new("SA");
    cell.push(Element::new(Layer::Metal1, wire, ElementKind::Wire).with_label("BL0"));
    cell.push(Element::new(Layer::Gate, gate, ElementKind::Gate));
    let bytes = gds::write_library("hifi", &[cell, Layout::new("EMPTY")]).expect("encodes");
    assert_eq!(gds::read_library(&bytes).expect("decodes").len(), 2);

    let mut damaged: Vec<(String, Vec<u8>)> = (0..bytes.len())
        .map(|n| (format!("truncated to {n} bytes"), bytes[..n].to_vec()))
        .collect();
    for len in [0xFFFFu16, 0x8000, 0x7FFF, 0x0005, 0x0002, 0] {
        for at in 0..bytes.len() - 1 {
            let mut bad = bytes.clone();
            bad[at..at + 2].copy_from_slice(&len.to_be_bytes());
            damaged.push((format!("length {len:#06x} at byte {at}"), bad));
        }
    }
    let panicked: Vec<&String> = damaged
        .iter()
        .filter(|(_, bad)| std::panic::catch_unwind(|| gds::read_library(bad)).is_err())
        .map(|(what, _)| what)
        .collect();
    assert!(panicked.is_empty(), "of {}: {panicked:#?}", damaged.len());
}
