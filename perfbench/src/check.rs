//! Independent output checks. Each recounts a result from nothing but the
//! raw pin lists and the returned sides or blocks, sharing no code with
//! the partitioners' own bookkeeping, so agreement is evidence.

use np_netlist::{balance_bound, Hypergraph, KwayCutStats, Side};

/// Recounts cut nets and side sizes of a bipartition.
pub fn recount_bisection(hg: &Hypergraph, left: &[bool]) -> (usize, usize, usize) {
    let cut = hg
        .nets()
        .filter(|&net| {
            let pins = hg.pins(net);
            let first = left[pins[0].index()];
            pins.iter().any(|m| left[m.index()] != first)
        })
        .count();
    let l = left.iter().filter(|&&x| x).count();
    (cut, l, left.len() - l)
}

/// Checks a bisection's claimed cut and side sizes against a recount.
pub fn check_bisection(
    hg: &Hypergraph,
    sides: &[Side],
    cut: usize,
    left: usize,
    right: usize,
) -> Result<(), String> {
    if sides.len() != hg.num_modules() {
        return Err(format!(
            "{} sides for {} modules",
            sides.len(),
            hg.num_modules()
        ));
    }
    let is_left: Vec<bool> = sides.iter().map(|s| *s == Side::Left).collect();
    let got = recount_bisection(hg, &is_left);
    if got != (cut, left, right) {
        return Err(format!(
            "claimed cut/left/right {cut}/{left}/{right}, recount {}/{}/{}",
            got.0, got.1, got.2
        ));
    }
    if got.1 == 0 || got.2 == 0 {
        return Err("a side is empty".into());
    }
    Ok(())
}

/// Checks a k-way result: cut against `np_testkit::kway_reference_cut`,
/// external counts and ratio against `kway_reference_externals`, every
/// block non-empty and within `(1+ε)·total/k` (unit module areas).
pub fn check_kway(
    hg: &Hypergraph,
    labels: &[u32],
    k: usize,
    epsilon: f64,
    claimed: &KwayCutStats,
) -> Result<f64, String> {
    if labels.len() != hg.num_modules() || labels.iter().any(|&b| b as usize >= k) {
        return Err("labels do not cover every module with a block below k".into());
    }
    let cut = np_testkit::kway_reference_cut(hg, labels);
    let (_, external) = np_testkit::kway_reference_externals(hg, labels, k);
    let mut sizes = vec![0usize; k];
    for &b in labels {
        sizes[b as usize] += 1;
    }
    if cut != claimed.cut_nets || external != claimed.external || sizes != claimed.block_sizes {
        return Err(format!(
            "claimed cut {} / blocks {:?}, reference cut {cut} / blocks {sizes:?}",
            claimed.cut_nets, claimed.block_sizes
        ));
    }
    let bound = balance_bound(hg.num_modules() as f64, k, epsilon);
    if let Some(b) = sizes.iter().position(|&s| s == 0 || s as f64 > bound) {
        return Err(format!(
            "block {b} holds {} modules, bound {bound:.1}",
            sizes[b]
        ));
    }
    let ratio: f64 = external
        .iter()
        .zip(&sizes)
        .map(|(&e, &s)| e as f64 / s as f64)
        .sum();
    if (ratio - claimed.ratio()).abs() > 1e-12 * ratio.max(1.0) {
        return Err(format!(
            "claimed ratio {}, reference {ratio}",
            claimed.ratio()
        ));
    }
    Ok(ratio)
}

/// FNV-1a hash of a partition's labels, for comparing outcomes.
pub fn partition_hash(labels: impl IntoIterator<Item = u32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in labels {
        for byte in b.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// [`partition_hash`] of a bipartition (left = 0, right = 1).
pub fn sides_hash(sides: &[Side]) -> u64 {
    partition_hash(sides.iter().map(|s| u32::from(*s == Side::Right)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_netlist::generate::{generate, GeneratorConfig};
    use np_netlist::KwayPartition;

    fn netlist() -> Hypergraph {
        generate(&GeneratorConfig::new(120, 140, 5))
    }

    #[test]
    fn corrupted_bisection_is_caught() {
        let hg = netlist();
        let sides: Vec<Side> = (0..120)
            .map(|i| if i < 60 { Side::Left } else { Side::Right })
            .collect();
        let mut is_left: Vec<bool> = sides.iter().map(|s| *s == Side::Left).collect();
        let (cut, l, r) = recount_bisection(&hg, &is_left);
        assert!(check_bisection(&hg, &sides, cut, l, r).is_ok());
        // a wrong claimed cut, and a flipped module, must both trip
        assert!(check_bisection(&hg, &sides, cut + 1, l, r).is_err());
        let mut flipped = sides.clone();
        flipped[0] = Side::Right;
        is_left[0] = false;
        assert_ne!(recount_bisection(&hg, &is_left).1, l);
        assert!(check_bisection(&hg, &flipped, cut, l, r).is_err());
    }

    #[test]
    fn corrupted_kway_is_caught() {
        let hg = netlist();
        let labels: Vec<u32> = (0..120u32).map(|i| i / 30).collect();
        let p = KwayPartition::with_num_blocks(labels.clone(), 4);
        let stats = p.cut_stats(&hg);
        assert!(check_kway(&hg, &labels, 4, 0.1, &stats).is_ok());
        // a module moved without updating the claim, or a misreported cut
        let mut corrupt = labels.clone();
        corrupt[0] = (corrupt[0] + 1) % 4;
        assert!(check_kway(&hg, &corrupt, 4, 0.1, &stats).is_err());
        let mut wrong_cut = stats.clone();
        wrong_cut.cut_nets += 1;
        assert!(check_kway(&hg, &labels, 4, 0.1, &wrong_cut).is_err());
        // an unbalanced partition breaks the bound
        let lopsided: Vec<u32> = (0..120u32)
            .map(|i| if i < 90 { 0 } else { 1 + i % 3 })
            .collect();
        let lp = KwayPartition::with_num_blocks(lopsided.clone(), 4);
        assert!(check_kway(&hg, &lopsided, 4, 0.1, &lp.cut_stats(&hg)).is_err());
    }
}
