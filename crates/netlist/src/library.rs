//! The synthetic standard-cell library.
//!
//! The paper reports areas from a TSMC 90 nm library, which cannot be
//! redistributed. [`Library::vt90`] is a synthetic library with the same
//! *relative* cost structure (inverters cheapest, NAND/NOR cheaper than
//! AND/OR, XOR and MUX expensive, flops an order of magnitude larger than
//! simple gates) so that area ratios — the only quantity the paper's
//! conclusions rest on — are preserved.
//!
//! A [`Library`] is **data, not code**: it holds one [`CellSpec`] row per
//! cell, and every consumer — the area report, static timing
//! (`synthir_synth::timing::sta` reads per-cell delays from here, never
//! from hardcoded defaults), the power estimate, and the cut-based
//! mapper's NPN index — reads the same metadata table. The `vt90` numbers
//! (areas in µm², delays in ns):
//!
//! | cell | area | delay | | cell | area | delay |
//! |------|-----:|------:|-|------|-----:|------:|
//! | `INV`   | 2.1 | 0.022 | | `NAND3` | 3.5 | 0.041 |
//! | `BUF`   | 2.8 | 0.045 | | `NOR3`  | 3.5 | 0.053 |
//! | `NAND2` | 2.8 | 0.032 | | `AND3`  | 4.2 | 0.060 |
//! | `NOR2`  | 2.8 | 0.038 | | `OR3`   | 4.2 | 0.068 |
//! | `AND2`  | 3.5 | 0.052 | | `NAND4` | 4.2 | 0.050 |
//! | `OR2`   | 3.5 | 0.058 | | `NOR4`  | 4.2 | 0.066 |
//! | `XOR2`  | 7.0 | 0.075 | | `AND4`  | 4.9 | 0.068 |
//! | `XNOR2` | 7.0 | 0.075 | | `OR4`   | 4.9 | 0.078 |
//! | `MUX2`  | 6.3 | 0.070 | | `AOI21` | 3.5 | 0.045 |
//! | `OAI21` | 3.5 | 0.047 | | `AOI22` | 4.2 | 0.055 |
//! | `OAI22` | 4.2 | 0.057 | | `DFF`   | 15.4 | 0.150 |
//! | `DFFS*` | 19.6 | 0.155 | | `DFFR*` | 18.2 | 0.152 |
//!
//! (`TIELO`/`TIEHI` are free; `DFFS*`/`DFFR*` are the sync/async-reset
//! flop flavours, delay = clock-to-Q.)

use crate::cell::{GateKind, ResetKind};

/// Area and delay of one library cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CellSpec {
    /// Cell area in µm².
    pub area: f64,
    /// Pin-to-output propagation delay in ns (clock-to-Q for flops).
    pub delay: f64,
}

/// A technology library mapping [`GateKind`]s to [`CellSpec`]s.
///
/// # Examples
///
/// ```
/// use synthir_netlist::{GateKind, Library};
///
/// let lib = Library::vt90();
/// let inv = lib.cell(GateKind::Inv);
/// let xor = lib.cell(GateKind::Xor2);
/// assert!(xor.area > inv.area);
/// ```
///
/// The metadata table is directly iterable — this is what the cut-based
/// mapper's NPN index and the docs' cell table are generated from:
///
/// ```
/// use synthir_netlist::{GateKind, Library};
///
/// let lib = Library::vt90();
/// for (kind, spec) in lib.combinational_cells() {
///     assert_eq!(lib.area(*kind), spec.area);
///     assert_eq!(lib.delay(*kind), spec.delay);
/// }
/// // Every combinational kind has exactly one metadata row.
/// assert_eq!(
///     lib.combinational_cells().len(),
///     GateKind::all_combinational().len(),
/// );
/// ```
#[derive(Clone, Debug)]
pub struct Library {
    name: String,
    /// Delay charged per fanout connection (crude wire-load model).
    pub fanout_delay: f64,
    /// Flop setup time in ns.
    pub setup_time: f64,
    /// Combinational cell metadata, one row per [`GateKind`].
    cells: Vec<(GateKind, CellSpec)>,
    /// Flop metadata, indexed by [`ResetKind`] (`None`, `Sync`, `Async`).
    flops: [CellSpec; 3],
}

impl Library {
    /// The default synthetic 90 nm-class library.
    pub fn vt90() -> Self {
        use GateKind::*;
        // Areas in µm² for a 90nm-class process (2.8 µm² per minimum gate
        // equivalent), delays in ns.
        let spec = |area, delay| CellSpec { area, delay };
        let cells = vec![
            (Const0, spec(0.0, 0.0)),
            (Const1, spec(0.0, 0.0)),
            (Buf, spec(2.8, 0.045)),
            (Inv, spec(2.1, 0.022)),
            (Nand2, spec(2.8, 0.032)),
            (Nor2, spec(2.8, 0.038)),
            (And2, spec(3.5, 0.052)),
            (Or2, spec(3.5, 0.058)),
            (Xor2, spec(7.0, 0.075)),
            (Xnor2, spec(7.0, 0.075)),
            (Nand3, spec(3.5, 0.041)),
            (Nor3, spec(3.5, 0.053)),
            (And3, spec(4.2, 0.060)),
            (Or3, spec(4.2, 0.068)),
            (Nand4, spec(4.2, 0.050)),
            (Nor4, spec(4.2, 0.066)),
            (And4, spec(4.9, 0.068)),
            (Or4, spec(4.9, 0.078)),
            (Mux2, spec(6.3, 0.070)),
            (Aoi21, spec(3.5, 0.045)),
            (Oai21, spec(3.5, 0.047)),
            (Aoi22, spec(4.2, 0.055)),
            (Oai22, spec(4.2, 0.057)),
        ];
        Library {
            name: "vt90".into(),
            fanout_delay: 0.004,
            setup_time: 0.06,
            cells,
            flops: [
                spec(15.4, 0.150), // ResetKind::None
                spec(19.6, 0.155), // ResetKind::Sync
                spec(18.2, 0.152), // ResetKind::Async
            ],
        }
    }

    /// Library name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The combinational cell metadata table: one `(kind, spec)` row per
    /// combinational [`GateKind`]. This is the view the cut-based mapper
    /// indexes by NPN class, and the source of truth the per-kind
    /// accessors read.
    pub fn combinational_cells(&self) -> &[(GateKind, CellSpec)] {
        &self.cells
    }

    /// The area/delay of a gate kind, read from the metadata table.
    ///
    /// # Panics
    ///
    /// Panics if the library has no row for a combinational `kind`
    /// (cannot happen for [`Library::vt90`], which covers every kind).
    pub fn cell(&self, kind: GateKind) -> CellSpec {
        match kind {
            GateKind::Dff { reset, .. } => {
                self.flops[match reset {
                    ResetKind::None => 0,
                    ResetKind::Sync => 1,
                    ResetKind::Async => 2,
                }]
            }
            k => {
                self.cells
                    .iter()
                    .find(|(c, _)| *c == k)
                    .unwrap_or_else(|| panic!("no library metadata for {k:?}"))
                    .1
            }
        }
    }

    /// Area of a gate kind (convenience).
    pub fn area(&self, kind: GateKind) -> f64 {
        self.cell(kind).area
    }

    /// Delay of a gate kind (convenience).
    pub fn delay(&self, kind: GateKind) -> f64 {
        self.cell(kind).delay
    }

    /// Appends a word fingerprint of every field to `out`: the name, the
    /// fanout delay and setup time, each cell row in table order and the
    /// three flop rows, numbers as raw `f64` bits. Two libraries with equal
    /// fingerprints give every synthesis pass the same numbers.
    pub fn encode_words(&self, out: &mut Vec<u32>) {
        // Destructured so that a new field cannot be left out silently.
        let Library {
            name,
            fanout_delay,
            setup_time,
            cells,
            flops,
        } = self;
        let f64_bits = |out: &mut Vec<u32>, x: f64| {
            let b = x.to_bits();
            out.extend([(b >> 32) as u32, b as u32]);
        };
        out.push(name.len() as u32);
        out.extend(name.bytes().map(u32::from));
        f64_bits(out, *fanout_delay);
        f64_bits(out, *setup_time);
        out.push(cells.len() as u32);
        for (kind, spec) in cells {
            out.push(kind.word_code());
            f64_bits(out, spec.area);
            f64_bits(out, spec.delay);
        }
        for spec in flops {
            f64_bits(out, spec.area);
            f64_bits(out, spec.delay);
        }
    }
}

impl Default for Library {
    fn default() -> Self {
        Library::vt90()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_cost_structure() {
        let lib = Library::vt90();
        // Inverter is the cheapest non-constant cell.
        let inv = lib.area(GateKind::Inv);
        for k in GateKind::all_combinational() {
            if !k.is_constant() {
                assert!(lib.area(k) >= inv, "{k:?} cheaper than INV");
            }
        }
        // NAND cheaper than AND (the extra inverter).
        assert!(lib.area(GateKind::Nand2) < lib.area(GateKind::And2));
        // XOR is expensive.
        assert!(lib.area(GateKind::Xor2) > lib.area(GateKind::Nand3));
        // Flops dominate simple gates.
        let dff = lib.area(GateKind::Dff {
            reset: ResetKind::None,
            init: false,
        });
        assert!(dff > 3.0 * lib.area(GateKind::Nand2));
        // Resettable flops cost more than plain ones.
        let sdff = lib.area(GateKind::Dff {
            reset: ResetKind::Sync,
            init: false,
        });
        let adff = lib.area(GateKind::Dff {
            reset: ResetKind::Async,
            init: false,
        });
        assert!(sdff > dff && adff > dff);
    }

    #[test]
    fn constants_are_free() {
        let lib = Library::vt90();
        assert_eq!(lib.area(GateKind::Const0), 0.0);
        assert_eq!(lib.area(GateKind::Const1), 0.0);
    }

    #[test]
    fn delays_are_positive() {
        let lib = Library::vt90();
        for k in GateKind::all_combinational() {
            if !k.is_constant() {
                assert!(lib.delay(k) > 0.0);
            }
        }
        assert!(lib.setup_time > 0.0);
        assert!(lib.fanout_delay > 0.0);
    }

    #[test]
    fn metadata_table_covers_every_combinational_kind() {
        let lib = Library::vt90();
        for k in GateKind::all_combinational() {
            assert!(
                lib.combinational_cells().iter().any(|(c, _)| *c == k),
                "{k:?} missing from the metadata table"
            );
        }
        // And the accessors agree with the table rows.
        for (k, spec) in lib.combinational_cells() {
            assert_eq!(lib.cell(*k), *spec);
        }
    }

    #[test]
    fn fingerprint_sees_every_field() {
        let fp = |lib: &Library| {
            let mut w = Vec::new();
            lib.encode_words(&mut w);
            w
        };
        let base = fp(&Library::vt90());
        assert_eq!(base, fp(&Library::default()));
        let mut variants: Vec<Library> = Vec::new();
        let mut l = Library::vt90();
        l.name = "vt90b".into();
        variants.push(l);
        let mut l = Library::vt90();
        l.fanout_delay += 1e-6;
        variants.push(l);
        let mut l = Library::vt90();
        l.setup_time = 0.061;
        variants.push(l);
        let mut l = Library::vt90();
        l.cells[3].1.area += 0.1;
        variants.push(l);
        let mut l = Library::vt90();
        l.cells[3].1.delay += 0.001;
        variants.push(l);
        let mut l = Library::vt90();
        l.cells.swap(4, 5);
        variants.push(l);
        let mut l = Library::vt90();
        l.cells.pop();
        variants.push(l);
        let mut l = Library::vt90();
        l.flops[2].area += 0.1;
        variants.push(l);
        let mut l = Library::vt90();
        l.flops[1].delay += 0.001;
        variants.push(l);
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(fp(v), base, "variant {i}");
        }
    }
}
