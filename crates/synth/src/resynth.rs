//! Collapse-and-re-cover resynthesis.
//!
//! For every output and flop-input cone within the effort limit, the cone is
//! collapsed to a two-level cover, minimized with the espresso loop, factored
//! and re-emitted. This is the step that makes a constant-folded table reach
//! the area of a hand-written sum-of-products (Fig. 5): after folding, both
//! styles describe the same function, and re-covering erases most of the
//! structural difference — though not all of it, because the minimizer is
//! seeded with the *structural* cover of the existing netlist, so different
//! starting RTL can land in different local optima, exactly the scatter the
//! paper attributes to the tool's "bumpy" optimization surface.

use crate::conefn::Cone;
use crate::factor::emit_cover;
use crate::uses::UseCounts;
use synthir_logic::espresso::{minimize, EspressoOptions};
use synthir_logic::{Cover, Cube, TruthTable};
use synthir_netlist::{GateKind, Library, NetId, Netlist};

/// Widest cone (in support nets) the pass collapses. Models the tool's
/// effort limit; wider cones keep their structural form.
pub const COLLAPSE_SUPPORT: usize = 14;

/// A minimized cover with more cubes than this is rejected, which protects
/// parity-like functions from exponential two-level covers.
pub const MAX_COVER_CUBES: usize = 96;

/// Re-covers all eligible cones. Returns the number of cones rebuilt.
///
/// Each rebuild is accepted only when the re-covered logic is estimated to
/// be no larger than the logic it retires (under `lib`), so the
/// pass never degrades structurally good implementations such as XOR trees.
///
/// Cheap checks come first. Before a cone is collapsed structurally,
/// minimized and emitted, its area floor (`area_floor`) — a lower bound on
/// what any rebuild of its function can cost — is compared with the area it would
/// retire; a cone whose floor is larger would be rejected after all that
/// work, so it is rejected before it. The bound is exact for the emitter,
/// so the set of accepted rebuilds is the one the full work would accept.
///
/// The pass runs in two phases. Phase 1 plans every root against the
/// pre-pass netlist concurrently (the expensive, pure work): it rejects
/// what it can, and collapses and minimizes the rest. Phase 2 applies the
/// rebuilds serially in root order; until the first mutation the netlist
/// is untouched, so plans apply without any re-collapse, and after a
/// mutation each remaining root is re-planned against the current netlist
/// — a cone altered by an earlier rebuild is simply re-minimized on the
/// spot, and a phase-1 rejection is checked again rather than trusted.
/// Either way the result is identical to a fully serial pass.
///
/// # Cost
///
/// Apart from collecting the roots, counting uses and the final sweep, the
/// work per root is O(cone). A support walk that stops past
/// [`COLLAPSE_SUPPORT`] nets refuses wide cones; any other cone is resolved
/// once into one program (`conefn::Cone`), and the truth table, the
/// structural cover and the area a rebuild would retire all read it. The
/// area comes from a reference-count walk over the cone (ABC's `deref`)
/// against per-net use counts. The use counts cost O(netlist) to build,
/// once before phase 1 and again only when an accepted rebuild has changed
/// the netlist — which then already pays O(netlist) for
/// [`Netlist::replace_net_uses`].
pub fn resynthesize(nl: &mut Netlist, lib: &Library) -> usize {
    let mut roots: Vec<NetId> = Vec::new();
    for net in nl.output_nets() {
        roots.push(net);
    }
    for (_, g) in nl.gates() {
        if g.kind.is_sequential() {
            roots.push(g.inputs()[0]);
        }
    }
    roots.sort();
    roots.dedup();
    let uses = UseCounts::count(nl);
    let plans: Vec<Plan> =
        synthir_logic::par::par_map(&roots, |&root| plan_root(nl, root, lib, || &uses, None));
    let mut rebuilt = 0;
    let mut state = Phase2::default();
    for (&root, plan) in roots.iter().zip(&plans) {
        if rebuild_root(nl, root, lib, plan, &mut state) {
            rebuilt += 1;
        }
    }
    nl.sweep();
    rebuilt
}

/// The phase-1 verdict on one root, made against the pre-pass netlist.
enum Plan {
    /// Nothing to rebuild: the root is not a combinational cone within
    /// [`COLLAPSE_SUPPORT`], or no rebuild of its cone can pay off.
    Reject,
    /// The cone computes a constant.
    Constant(bool),
    /// The cone's minimized cover, to be accepted or rejected on its cost.
    Rebuild(ConePlan),
}

/// The minimization of one cone. A phase-1 plan stays valid as long as the
/// cone still collapses to the same function from the same start cover.
struct ConePlan {
    support: Vec<NetId>,
    tt: TruthTable,
    start: Cover,
    minimized: Cover,
    /// The area the rebuild would retire from the netlist it was planned
    /// on.
    dying: f64,
}

/// The serial (phase-2) state of the pass.
#[derive(Default)]
struct Phase2 {
    /// Whether the netlist has changed since phase 1 saw it.
    mutated: bool,
    /// Use counts of the current netlist; `None` until first needed after
    /// a change.
    uses: Option<UseCounts>,
}

impl Phase2 {
    /// Records a change to the netlist.
    fn changed(&mut self) {
        self.mutated = true;
        self.uses = None;
    }

    fn uses(&mut self, nl: &Netlist) -> &UseCounts {
        self.uses.get_or_insert_with(|| UseCounts::count(nl))
    }
}

/// Slack on the floor test. A floor is a product and an emitted cost a sum
/// of the same cell areas, so the two can differ by `f64` rounding; the
/// slack makes such a difference keep a cone for the exact test rather
/// than reject it.
const FLOOR_SLACK: f64 = 1e-6;

/// A lower bound on the area of any cover of `tt` that
/// [`emit_cover`] can emit: `min(area(And2), area(Or2)) · (k − 1)` for a
/// function that essentially depends on `k` variables.
///
/// The bound is exact for the emitter, not a heuristic. `emit_cover`
/// builds trees of two-input `And2`/`Or2` gates over literals, plus shared
/// `Inv`s (single-input) and free constants. A network of such gates that
/// computes a function of `k` essential variables reads each of them, so
/// its two-input gates join at least `k` leaves into one root and number
/// at least `k − 1`; every other gate only adds area.
pub(crate) fn area_floor(tt: &TruthTable, lib: &Library) -> f64 {
    let gate = lib.area(GateKind::And2).min(lib.area(GateKind::Or2));
    gate * tt.support().len().saturating_sub(1) as f64
}

/// Whether no rebuild of a cone computing `tt` can be accepted when it
/// would retire `dying` area: [`apply_rebuild`]'s exact test would reject
/// every cover [`emit_cover`] could emit for it.
fn cannot_pay_off(tt: &TruthTable, dying: f64, lib: &Library) -> bool {
    area_floor(tt, lib) > dying + FLOOR_SLACK
}

/// Plans `root` against `nl`; `uses` yields `nl`'s use counts, and is
/// called only for a cone that gets as far as the floor test. A `prior`
/// plan made on an earlier netlist lends its minimized cover when the cone
/// still collapses to the same function from the same start cover.
fn plan_root<'u>(
    nl: &Netlist,
    root: NetId,
    lib: &Library,
    uses: impl FnOnce() -> &'u UseCounts,
    prior: Option<&Plan>,
) -> Plan {
    let Some(driver) = nl.driver(root) else {
        return Plan::Reject;
    };
    let kind = nl.gate(driver).kind;
    if kind.is_sequential() || kind.is_constant() {
        return Plan::Reject;
    }
    let Some(cone) = Cone::collapse(nl, root, COLLAPSE_SUPPORT) else {
        return Plan::Reject;
    };
    let tt = cone.truth_table();
    if let Some(v) = tt.as_constant() {
        return Plan::Constant(v);
    }
    let dying = uses().dying_area(&cone, lib);
    if cannot_pay_off(&tt, dying, lib) {
        return Plan::Reject;
    }
    // Seed the minimizer with the structural cover when it is small enough;
    // otherwise fall back to the canonical minterm cover.
    let start = structural_cover(&cone, 4 * MAX_COVER_CUBES)
        .unwrap_or_else(|| Cover::from_truth_table(&tt));
    let minimized = match prior {
        Some(Plan::Rebuild(p)) if p.support == cone.support && p.tt == tt && p.start == start => {
            p.minimized.clone()
        }
        _ => minimize(&start, None, &EspressoOptions::default()),
    };
    Plan::Rebuild(ConePlan {
        support: cone.support,
        tt,
        start,
        minimized,
        dying,
    })
}

fn rebuild_root(
    nl: &mut Netlist,
    root: NetId,
    lib: &Library,
    plan: &Plan,
    state: &mut Phase2,
) -> bool {
    // Until the first mutation the netlist is exactly what phase 1 saw, so
    // the plan needs no re-validation — re-collapsing the cone here would
    // just repeat phase 1's work serially. After it, the root is planned
    // again against the current netlist (a phase-1 rejection may no longer
    // hold), reusing the phase-1 cover where the cone is unchanged.
    let replanned;
    let plan = if state.mutated {
        replanned = plan_root(nl, root, lib, || state.uses(nl), Some(plan));
        &replanned
    } else {
        plan
    };
    match plan {
        Plan::Reject => false,
        &Plan::Constant(v) => replace_with_constant(nl, root, v, state),
        Plan::Rebuild(cone) => apply_rebuild(nl, root, lib, cone, state),
    }
}

/// Rewires the consumers of `root` to the constant `v`.
fn replace_with_constant(nl: &mut Netlist, root: NetId, v: bool, state: &mut Phase2) -> bool {
    let c = nl.constant(v);
    nl.replace_net_uses(root, c);
    state.changed();
    true
}

/// Accepts or rejects a cone's minimized cover and stitches it in when it
/// pays off. Records every change to the netlist in `state`.
fn apply_rebuild(
    nl: &mut Netlist,
    root: NetId,
    lib: &Library,
    cone: &ConePlan,
    state: &mut Phase2,
) -> bool {
    let ConePlan {
        support,
        tt,
        minimized,
        dying,
        ..
    } = cone;
    if minimized.cube_count() > MAX_COVER_CUBES {
        return false; // parity-like function: keep the structural form
    }
    debug_assert_eq!(
        &minimized.to_truth_table(support.len()),
        tt,
        "resynthesis must preserve the cone function"
    );
    // Accept only if the rebuilt logic is no larger than what it retires.
    if cover_cost(minimized, lib) > *dying {
        return false;
    }
    let new_root = emit_cover(nl, minimized, support);
    // emit_cover adds gates for every cover but a single positive literal
    // (then it returns that support net). Either way the result is a new
    // net or a source: `root` is driven by a combinational gate, so it is
    // neither in its own support nor returned here, and the rewiring below
    // always changes the netlist.
    debug_assert_ne!(new_root, root);
    nl.replace_net_uses(root, new_root);
    state.changed();
    true
}

/// The area [`emit_cover`] spends on `cover`, emitted into a scratch
/// netlist: what rebuilding a cone with it costs.
fn cover_cost(cover: &Cover, lib: &Library) -> f64 {
    let mut scratch = Netlist::new("scratch");
    let fake = scratch.add_input("x", cover.nvars());
    emit_cover(&mut scratch, cover, &fake);
    scratch.area_report(lib).combinational
}

/// Extracts a sum-of-products cover of a single-root cone over its
/// support by structural collapse (the tool's internal "collapse"
/// operation): one cover per slot, each gate's built from its fanins'.
/// Returns `None` if any intermediate cover exceeds `cap` cubes.
pub(crate) fn structural_cover(cone: &Cone, cap: usize) -> Option<Cover> {
    let nvars = cone.support.len();
    let mut covers: Vec<Cover> = (0..nvars)
        .map(|v| Cover::from_cubes(nvars, [Cube::new(nvars, 1u64 << v, 1u64 << v)]))
        .collect();
    covers.push(Cover::empty(nvars));
    covers.push(Cover::tautology_cover(nvars));
    for op in &cone.ops {
        let ins = op.ins.map(|s| &covers[s]);
        let out = eval_cover(op.kind, &ins[..op.kind.arity()], cap)?;
        if out.cube_count() > cap {
            return None;
        }
        covers.push(out);
    }
    Some(covers.swap_remove(cone.roots[0]))
}

fn eval_cover(kind: GateKind, ins: &[&Cover], cap: usize) -> Option<Cover> {
    use GateKind::*;
    let and2 = |a: &Cover, b: &Cover| -> Option<Cover> {
        let mut out = Cover::empty(a.nvars());
        for x in a.cubes() {
            for y in b.cubes() {
                if let Some(c) = x.intersect(y) {
                    out.push(c);
                }
                if out.cube_count() > cap {
                    return None;
                }
            }
        }
        out.remove_contained_cubes();
        Some(out)
    };
    let or_all = |cs: &[&Cover]| -> Option<Cover> {
        let mut out = cs[0].clone();
        for c in &cs[1..] {
            out = out.union(c);
        }
        out.remove_contained_cubes();
        if out.cube_count() > cap {
            None
        } else {
            Some(out)
        }
    };
    let and_all = |cs: &[&Cover]| -> Option<Cover> {
        let mut out = cs[0].clone();
        for c in &cs[1..] {
            out = and2(&out, c)?;
        }
        Some(out)
    };
    let not = |c: &Cover| -> Option<Cover> {
        let r = c.complement();
        if r.cube_count() > cap {
            None
        } else {
            Some(r)
        }
    };
    match kind {
        Buf => Some(ins[0].clone()),
        Inv => not(ins[0]),
        And2 | And3 | And4 => and_all(ins),
        Or2 | Or3 | Or4 => or_all(ins),
        Nand2 | Nand3 | Nand4 => not(&and_all(ins)?),
        Nor2 | Nor3 | Nor4 => not(&or_all(ins)?),
        Xor2 => {
            let na = not(ins[0])?;
            let nb = not(ins[1])?;
            or_all(&[&and2(ins[0], &nb)?, &and2(&na, ins[1])?])
        }
        Xnor2 => {
            let na = not(ins[0])?;
            let nb = not(ins[1])?;
            or_all(&[&and2(ins[0], ins[1])?, &and2(&na, &nb)?])
        }
        Mux2 => {
            let ns = not(ins[0])?;
            or_all(&[&and2(&ns, ins[1])?, &and2(ins[0], ins[2])?])
        }
        Aoi21 => not(&or_all(&[&and2(ins[0], ins[1])?, ins[2]])?),
        Oai21 => not(&and2(&or_all(&[ins[0], ins[1]])?, ins[2])?),
        Aoi22 => not(&or_all(&[&and2(ins[0], ins[1])?, &and2(ins[2], ins[3])?])?),
        Oai22 => not(&and2(
            &or_all(&[ins[0], ins[1]])?,
            &or_all(&[ins[2], ins[3]])?,
        )?),
        Const0 | Const1 | Dff { .. } => {
            unreachable!("cone programs hold only non-constant combinational gates")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conefn::tests::random_netlist;
    use synthir_netlist::{topo, Library};

    /// The formulation `UseCounts::dying_area` replaced: a fanout map and an
    /// output-net set built for the whole netlist on every query.
    fn dying_cone_area_oracle(nl: &Netlist, root: NetId, lib: &Library) -> f64 {
        let cone = topo::cone_gates(nl, root);
        let in_cone: std::collections::HashSet<_> = cone.iter().copied().collect();
        let fanout = nl.fanout_map();
        let out_nets: std::collections::HashSet<NetId> = nl.output_nets().into_iter().collect();
        let mut dying: std::collections::HashSet<synthir_netlist::GateId> =
            std::collections::HashSet::new();
        for &g in cone.iter().rev() {
            let out = nl.gate(g).output;
            if out == root {
                dying.insert(g);
                continue;
            }
            let survives = out_nets.contains(&out)
                || fanout
                    .of(out)
                    .iter()
                    .any(|c| !in_cone.contains(c) || !dying.contains(c));
            if !survives {
                dying.insert(g);
            }
        }
        cone.iter()
            .filter(|g| dying.contains(g))
            .map(|&g| lib.area(nl.gate(g).kind))
            .sum()
    }

    #[test]
    fn reference_counted_dying_area_matches_fanout_oracle() {
        let lib = Library::vt90();
        let mut partial = 0;
        for seed in 0..300u64 {
            let nl = random_netlist(seed);
            let uses = UseCounts::count(&nl);
            for (_, g) in nl.gates() {
                if g.kind.is_sequential() || g.kind.is_constant() {
                    continue;
                }
                let root = g.output;
                let cone = Cone::collapse(&nl, root, usize::MAX).unwrap();
                let area = uses.dying_area(&cone, &lib);
                let expected = dying_cone_area_oracle(&nl, root, &lib);
                assert_eq!(
                    area.to_bits(),
                    expected.to_bits(),
                    "seed {seed} root {root:?}"
                );
                let whole: f64 = topo::cone_gates(&nl, root)
                    .iter()
                    .map(|&c| lib.area(nl.gate(c).kind))
                    .sum();
                if area < whole {
                    partial += 1; // some of the cone is shared and survives
                }
            }
            // The queries left the counts as they were.
            assert_eq!(uses, UseCounts::count(&nl), "seed {seed}");
        }
        assert!(partial > 1000, "only {partial} cones with surviving gates");
    }

    #[test]
    fn area_floor_never_exceeds_an_emitted_cover() {
        use synthir_logic::espresso::minimize_tt;
        let lib = Library::vt90();
        let mut state = 11u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let (mut checked, mut tight) = (0, 0);
        for round in 0..400 {
            let n = round % 9;
            // A random subset of the variables matters; the rest are
            // vacuous. Every fourth table is a single cube over that subset
            // (an AND of literals), whose cover costs exactly the floor.
            let keep = next() as usize & ((1 << n) - 1);
            let flips = next() as usize;
            let seed = next();
            let tt = if round % 4 == 0 {
                TruthTable::from_fn(n, |m| (m ^ flips) & keep == keep)
            } else {
                TruthTable::from_fn(n, |m| {
                    (seed ^ (m & keep) as u64).wrapping_mul(0x2545_F491_4F6C_DD1D) >> 61 < 3
                })
            };
            let floor = area_floor(&tt, &lib);
            // The cover the minimizer finds from the minterms.
            let direct = cover_cost(&minimize_tt(&tt, None), &lib);
            // The cover the pass finds: minimized from the structural cover
            // of a netlist computing the table (a mux tree over the
            // variables, constant leaves folded away).
            let mut nl = Netlist::new("t");
            let xs = nl.add_input("x", n);
            let leaves: Vec<NetId> = (0..1 << n).map(|m| nl.constant(tt.eval(m))).collect();
            let mut level = leaves;
            for &x in &xs {
                level = level
                    .chunks(2)
                    .map(|pair| nl.add_gate(GateKind::Mux2, &[x, pair[0], pair[1]]))
                    .collect();
            }
            let y = level[0];
            nl.add_output("y", &[y]);
            crate::aigopt::aig_optimize(&mut nl, None, &mut [], false);
            let y = nl.output_nets()[0];
            let cone = Cone::collapse(&nl, y, n).unwrap();
            let start = structural_cover(&cone, 4 * MAX_COVER_CUBES)
                .unwrap_or_else(|| Cover::from_truth_table(&cone.truth_table()));
            let seeded = cover_cost(&minimize(&start, None, &EspressoOptions::default()), &lib);
            for cost in [direct, seeded] {
                assert!(
                    floor <= cost,
                    "round {round}: floor {floor} above emitted {cost} for {tt:?}"
                );
                checked += 1;
                if floor == cost && floor > 0.0 {
                    tight += 1;
                }
            }
        }
        // The bound is met with equality, so raising it by one gate would
        // fail above.
        assert!(
            checked == 800 && tight > 20,
            "{checked} checked, {tight} tight"
        );
    }

    /// The pass as it ran without the floor, serially: every eligible cone
    /// is collapsed, minimized and priced against the current netlist.
    fn resynthesize_full_work(nl: &mut Netlist, lib: &Library) -> usize {
        let mut roots = nl.output_nets();
        roots.extend(
            nl.gates()
                .filter(|(_, g)| g.kind.is_sequential())
                .map(|(_, g)| g.inputs()[0]),
        );
        roots.sort();
        roots.dedup();
        let mut rebuilt = 0;
        for root in roots {
            let Some(driver) = nl.driver(root) else {
                continue;
            };
            let kind = nl.gate(driver).kind;
            if kind.is_sequential() || kind.is_constant() {
                continue;
            }
            let Some(cone) = Cone::collapse(nl, root, COLLAPSE_SUPPORT) else {
                continue;
            };
            let (support, tt) = (cone.support.to_vec(), cone.truth_table());
            let new_root = match tt.as_constant() {
                Some(v) => nl.constant(v),
                None => {
                    let start = structural_cover(&cone, 4 * MAX_COVER_CUBES)
                        .unwrap_or_else(|| Cover::from_truth_table(&tt));
                    let minimized = minimize(&start, None, &EspressoOptions::default());
                    let dying = UseCounts::count(nl).dying_area(&cone, lib);
                    if minimized.cube_count() > MAX_COVER_CUBES
                        || cover_cost(&minimized, lib) > dying
                    {
                        continue;
                    }
                    emit_cover(nl, &minimized, &support)
                }
            };
            nl.replace_net_uses(root, new_root);
            rebuilt += 1;
        }
        nl.sweep();
        rebuilt
    }

    #[test]
    fn area_floor_changes_no_rebuild_decision() {
        let lib = Library::vt90();
        let (mut rebuilt, mut refused, mut after_rebuild) = (0, 0, 0);
        for seed in 0..300u64 {
            let nl = random_netlist(seed);
            let uses = UseCounts::count(&nl);
            for root in nl.output_nets() {
                let Some(cone) = Cone::collapse(&nl, root, COLLAPSE_SUPPORT) else {
                    continue;
                };
                let tt = cone.truth_table();
                if nl
                    .driver(root)
                    .is_some_and(|g| !nl.gate(g).kind.is_sequential())
                    && tt.as_constant().is_none()
                    && cannot_pay_off(&tt, uses.dying_area(&cone, &lib), &lib)
                {
                    refused += 1; // the floor decides this root in phase 1
                }
            }
            let (mut fast, mut full) = (nl.clone(), nl);
            let n = resynthesize(&mut fast, &lib);
            assert_eq!(n, resynthesize_full_work(&mut full, &lib), "seed {seed}");
            let gates = |nl: &Netlist| -> Vec<_> { nl.gates().map(|(id, g)| (id, *g)).collect() };
            assert_eq!(gates(&fast), gates(&full), "seed {seed}");
            assert_eq!(fast.outputs(), full.outputs(), "seed {seed}");
            rebuilt += n;
            if n > 0 && n < fast.output_nets().len() {
                after_rebuild += 1; // phase 2 re-planned roots after a change
            }
        }
        assert!(
            rebuilt > 100 && refused > 100 && after_rebuild > 50,
            "{rebuilt} rebuilt, {refused} refused by the floor, {after_rebuild} re-planned"
        );
    }

    /// Builds the raw mux-tree netlist for a 3-input truth table (as table
    /// elaboration would) and checks resynthesis collapses it to SOP size.
    #[test]
    fn collapses_constant_mux_tree() {
        let tt = TruthTable::from_fn(3, |m| m.count_ones() >= 2);
        let mut nl = Netlist::new("t");
        let s = nl.add_input("x", 3);
        let leaves: Vec<NetId> = (0..8).map(|m| nl.constant(tt.eval(m))).collect();
        // Build mux tree.
        fn tree(nl: &mut Netlist, leaves: &[NetId], addr: &[NetId]) -> NetId {
            if addr.is_empty() {
                return leaves[0];
            }
            let half = leaves.len() / 2;
            let msb = addr[addr.len() - 1];
            let lo = tree(nl, &leaves[..half], &addr[..addr.len() - 1]);
            let hi = tree(nl, &leaves[half..], &addr[..addr.len() - 1]);
            nl.add_gate(GateKind::Mux2, &[msb, lo, hi])
        }
        let y = tree(&mut nl, &leaves, &s);
        nl.add_output("y", &[y]);

        let before = nl.num_gates();
        let lib = Library::vt90();
        resynthesize(&mut nl, &lib);
        assert!(nl.num_gates() < before);
        // Function preserved.
        let out = nl.output_nets()[0];
        let tt2 = Cone::collapse(&nl, out, 8).unwrap().truth_table();
        assert_eq!(tt2, tt);
        // Majority-of-3 factored: at most ~6 gates.
        assert!(nl.num_gates() <= 6, "got {}", nl.num_gates());
        assert!(nl.area_report(&lib).combinational < 30.0);
    }

    #[test]
    fn skips_parity_blowup() {
        // 10-input parity: espresso cover has 512 cubes > cap; the XOR tree
        // must be left intact.
        let mut nl = Netlist::new("p");
        let xs = nl.add_input("x", 10);
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = nl.add_gate(GateKind::Xor2, &[acc, x]);
        }
        nl.add_output("y", &[acc]);
        let before = nl.num_gates();
        resynthesize(&mut nl, &Library::vt90());
        assert_eq!(nl.num_gates(), before);
    }

    #[test]
    fn structural_cover_matches_function() {
        let mut nl = Netlist::new("t");
        let x = nl.add_input("x", 4);
        let ab = nl.add_gate(GateKind::And2, &[x[0], x[1]]);
        let cd = nl.add_gate(GateKind::Nand2, &[x[2], x[3]]);
        let y = nl.add_gate(GateKind::Xor2, &[ab, cd]);
        nl.add_output("y", &[y]);
        let cone = Cone::collapse(&nl, y, 8).unwrap();
        assert_eq!(cone.support, x);
        let cover = structural_cover(&cone, 1000).unwrap();
        assert_eq!(cover.to_truth_table(4), cone.truth_table());
    }

    #[test]
    fn rebuilds_flop_input_cones() {
        use synthir_netlist::ResetKind;
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 1)[0];
        let c1 = nl.const1();
        // Redundant: (a & 1) | (a & a) == a.
        let t1 = nl.add_gate(GateKind::And2, &[a, c1]);
        let t2 = nl.add_gate(GateKind::And2, &[a, a]);
        let d = nl.add_gate(GateKind::Or2, &[t1, t2]);
        let q = nl.add_gate(
            GateKind::Dff {
                reset: ResetKind::None,
                init: false,
            },
            &[d],
        );
        nl.add_output("q", &[q]);
        resynthesize(&mut nl, &Library::vt90());
        // The D cone should now be the input directly.
        let flop = nl
            .gates()
            .find(|(_, g)| g.kind.is_sequential())
            .map(|(id, _)| id)
            .unwrap();
        assert_eq!(nl.gate(flop).inputs()[0], a);
    }
}
