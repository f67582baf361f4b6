//! Property-based tests on the boolean kernel's invariants.

use proptest::prelude::*;
use synthir_logic::espresso::{minimize, EspressoOptions};
use synthir_logic::{BitVec, Cover, Cube, TruthTable, ValueSet};

/// An arbitrary truth table over `n` variables, from a random u64 seed.
fn tt_from_seed(n: usize, seed: u64) -> TruthTable {
    TruthTable::from_fn(n, |m| {
        let h = (m as u64 + 1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15 ^ seed)
            .rotate_left((seed % 61) as u32)
            .wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        h >> 62 & 1 != 0
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bitvec_double_negation(len in 1usize..200, seed in any::<u64>()) {
        let bv = BitVec::from_fn(len, |i| (seed >> (i % 64)) & 1 != 0);
        let mut twice = bv.clone();
        twice.not_assign();
        twice.not_assign();
        prop_assert_eq!(twice, bv);
    }

    #[test]
    fn bitvec_demorgan(len in 1usize..130, a in any::<u64>(), b in any::<u64>()) {
        let x = BitVec::from_fn(len, |i| (a >> (i % 64)) & 1 != 0);
        let y = BitVec::from_fn(len, |i| (b.rotate_left(i as u32 % 64)) & 1 != 0);
        let mut and_then_not = x.clone();
        and_then_not.and_assign(&y);
        and_then_not.not_assign();
        let mut nx = x.clone();
        nx.not_assign();
        let mut ny = y.clone();
        ny.not_assign();
        let mut or_of_nots = nx;
        or_of_nots.or_assign(&ny);
        prop_assert_eq!(and_then_not, or_of_nots);
    }

    #[test]
    fn espresso_preserves_function(n in 2usize..7, seed in any::<u64>()) {
        let tt = tt_from_seed(n, seed);
        let min = minimize(
            &Cover::from_truth_table(&tt),
            None,
            &EspressoOptions::default(),
        );
        prop_assert_eq!(min.to_truth_table(n), tt);
    }

    #[test]
    fn espresso_never_grows_the_cover(n in 2usize..6, seed in any::<u64>()) {
        let tt = tt_from_seed(n, seed);
        let start = Cover::from_truth_table(&tt);
        let min = minimize(&start, None, &EspressoOptions::default());
        prop_assert!(min.cube_count() <= start.cube_count().max(1));
    }

    #[test]
    fn espresso_respects_dont_cares(n in 2usize..6, seed in any::<u64>(), dseed in any::<u64>()) {
        let on = tt_from_seed(n, seed);
        let dc_raw = tt_from_seed(n, dseed);
        // DC must not overlap ON.
        let dc = TruthTable::from_fn(n, |m| dc_raw.eval(m) && !on.eval(m));
        let min = minimize(
            &Cover::from_truth_table(&on),
            Some(&Cover::from_truth_table(&dc)),
            &EspressoOptions::default(),
        );
        for m in 0..on.num_minterms() {
            if !dc.eval(m) {
                prop_assert_eq!(min.eval(m as u64), on.eval(m), "minterm {}", m);
            }
        }
    }

    #[test]
    fn cover_complement_is_involutive_on_semantics(n in 1usize..6, seed in any::<u64>()) {
        let tt = tt_from_seed(n, seed);
        let c = Cover::from_truth_table(&tt);
        let cc = c.complement().complement();
        prop_assert_eq!(cc.to_truth_table(n), tt);
    }

    #[test]
    fn cube_intersection_is_conjunction(
        v1 in any::<u64>(), c1 in any::<u64>(), v2 in any::<u64>(), c2 in any::<u64>()
    ) {
        let a = Cube::new(8, v1, c1);
        let b = Cube::new(8, v2, c2);
        match a.intersect(&b) {
            Some(i) => {
                for m in 0..256u64 {
                    prop_assert_eq!(
                        i.contains_minterm(m),
                        a.contains_minterm(m) && b.contains_minterm(m)
                    );
                }
            }
            None => {
                for m in 0..256u64 {
                    prop_assert!(!(a.contains_minterm(m) && b.contains_minterm(m)));
                }
            }
        }
    }

    #[test]
    fn valueset_map_is_image(width in 1u32..10, k in 1usize..12, seed in any::<u64>()) {
        let values: Vec<u128> = (0..k)
            .map(|i| (seed.rotate_left(i as u32 * 7) as u128) & ((1 << width) - 1))
            .collect();
        let s = ValueSet::from_values(width, values.clone());
        let mapped = s.map(width, |v| (v ^ 0b1) & ((1 << width) - 1));
        for v in values {
            prop_assert!(mapped.contains((v ^ 0b1) & ((1 << width) - 1)));
        }
    }

    #[test]
    fn valueset_widen_monotone(width in 1u32..8, k in 1usize..40) {
        let s = ValueSet::from_values(
            width,
            (0..k as u128).map(|v| v & ((1 << width) - 1)),
        );
        let w = s.widen(16);
        match (s.len(), w.len()) {
            (Some(orig), Some(kept)) => prop_assert!(kept == orig && orig <= 16),
            (Some(orig), None) => prop_assert!(orig > 16),
            _ => prop_assert!(false, "widen of explicit set must stay explicit or go All"),
        }
    }

    /// PLA → Cover → PLA identity: serializing random multi-output covers
    /// and parsing them back is lossless, structurally and semantically.
    #[test]
    fn pla_round_trip_identity(n in 1usize..8, outs in 1usize..5, seed in any::<u64>()) {
        use synthir_logic::pla::{from_pla, to_pla, Pla};
        let covers: Vec<Cover> = (0..outs)
            .map(|i| {
                let tt = tt_from_seed(n, seed.wrapping_add(i as u64 * 0x9E37));
                minimize(&Cover::from_truth_table(&tt), None, &EspressoOptions::default())
            })
            .collect();
        let text = to_pla(&covers);
        let back = from_pla(&text).unwrap();
        // Identity up to cube order: terms shared between outputs merge
        // into one line, which can reorder a cover's cube list.
        prop_assert_eq!(back.len(), covers.len());
        for (b, c) in back.iter().zip(&covers) {
            let mut bc: Vec<_> = b.cubes().to_vec();
            let mut cc: Vec<_> = c.cubes().to_vec();
            let key = |x: &Cube| (x.value_mask(), x.care_mask());
            bc.sort_by_key(key);
            cc.sort_by_key(key);
            prop_assert_eq!(bc, cc, "cube-set identity");
            prop_assert_eq!(b.to_truth_table(n), c.to_truth_table(n));
        }
        // And the full document model agrees with itself after a re-render.
        let doc = Pla::parse(&text).unwrap();
        prop_assert_eq!(Pla::parse(&doc.render()).unwrap(), doc);
    }

    /// Typed PLA round trip: a random ON/OFF/DC partition survives
    /// render → parse under fd, fr, and fdr semantics.
    #[test]
    fn typed_pla_round_trip(n in 1usize..6, seed in any::<u64>(), which in 0usize..3) {
        use synthir_logic::pla::{Pla, PlaType};
        let kind = [PlaType::Fd, PlaType::Fr, PlaType::Fdr][which];
        // Partition the minterms of one output three ways from the seed.
        let mut on = Cover::empty(n);
        let mut dc = Cover::empty(n);
        let mut off = Cover::empty(n);
        for m in 0..1u64 << n {
            let h = (m + 1).wrapping_mul(seed | 1).rotate_left(11) % 3;
            match h {
                0 => on.push(Cube::minterm(n, m)),
                1 if kind.has_dc() => dc.push(Cube::minterm(n, m)),
                2 if kind.has_off() => off.push(Cube::minterm(n, m)),
                _ => {}
            }
        }
        let pla = Pla {
            num_inputs: n,
            num_outputs: 1,
            input_labels: None,
            output_labels: None,
            kind,
            on: vec![on],
            dc: vec![dc],
            off: vec![off],
        };
        let back = Pla::parse(&pla.render()).unwrap();
        prop_assert_eq!(back, pla);
    }

    /// Minimizing a typed PLA preserves the specified behaviour: the result
    /// covers the ON-set and stays off the OFF-set / implicit OFF-set.
    #[test]
    fn pla_minimization_respects_planes(n in 1usize..6, seed in any::<u64>()) {
        use synthir_logic::pla::{Pla, PlaType};
        let mut text = format!(".i {n}\n.o 1\n.type fr\n");
        for m in 0..1u64 << n {
            let h = (m + 1).wrapping_mul(seed | 1).rotate_left(9) % 3;
            let ch = match h { 0 => '1', 1 => '0', _ => '~' };
            let cols: String = (0..n).rev().map(|b| if m >> b & 1 != 0 { '1' } else { '0' }).collect();
            text.push_str(&format!("{cols} {ch}\n"));
        }
        let pla = Pla::parse(&text).unwrap();
        prop_assert_eq!(pla.kind, PlaType::Fr);
        let min = pla.minimized(&EspressoOptions::default());
        for m in 0..1u64 << n {
            if pla.on[0].eval(m) {
                prop_assert!(min.on[0].eval(m), "minterm {} lost", m);
            }
            if pla.off[0].eval(m) {
                prop_assert!(!min.on[0].eval(m), "minterm {} violates OFF-set", m);
            }
        }
        prop_assert!(min.on[0].cube_count() <= pla.on[0].cube_count().max(1));
    }
}
