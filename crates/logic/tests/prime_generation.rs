//! Differential test of exact prime generation: the cube-based generator
//! must return the same sorted prime set as the minterm Quine–McCluskey
//! oracle, whether the function arrives as overlapping cubes or as
//! minterms, and the cube path of `minimize_auto` must return the cover
//! the truth-table path returns.

mod qm_oracle;

use qm_oracle::qm_primes;
use tauhls_check::{forall, Gen};
use tauhls_logic::{
    minimize_auto, minimize_exact, prime_implicants, primes_of_cubes, Cover, Cube, TruthTable,
};

/// Draws a cube over `n` variables with at most `max_free` don't-care
/// variables, so the oracle's minterm expansion stays small.
fn draw_cube(g: &mut Gen, n: usize, max_free: usize) -> Cube {
    let mut mask = (1u64 << n) - 1;
    for _ in 0..g.usize(0..=max_free.min(n)) {
        mask &= !(1u64 << g.usize(0..n));
    }
    Cube::new(mask, g.u64(0..1 << n))
}

/// Draws an on-set and a dc-set cover of 1–12 variables whose cubes may
/// overlap each other and across the two sets.
fn draw_function(g: &mut Gen) -> (Cover, Cover) {
    let n = g.usize(1..13);
    let max_free = g.usize(0..7);
    let num_on = g.usize(0..10);
    let num_dc = g.usize(0..5);
    let on = g.vec(num_on, |g| draw_cube(g, n, max_free));
    let dc = g.vec(num_dc, |g| draw_cube(g, n, max_free));
    (Cover::from_cubes(n, on), Cover::from_cubes(n, dc))
}

fn union(on: &Cover, dc: &Cover) -> Vec<Cube> {
    on.cubes().iter().chain(dc.cubes()).copied().collect()
}

/// Asserts every generator agrees with the oracle on the on-set ∪ dc-set
/// of `on`/`dc`, and the two minimization paths return one cover.
fn check(on: &Cover, dc: &Cover) {
    let n = on.num_vars();
    let cubes = union(on, dc);
    let minterms = Cover::from_cubes(n, cubes.iter().copied()).onset_minterms();
    let oracle = qm_primes(n, &minterms);
    assert_eq!(
        primes_of_cubes(cubes.iter().copied()),
        oracle,
        "{on:?} {dc:?}"
    );
    assert_eq!(prime_implicants(n, &minterms), oracle);
    // Fed in reverse, the worklist meets the cubes in another order.
    assert_eq!(primes_of_cubes(cubes.iter().rev().copied()), oracle);

    let table = TruthTable::from_fn(n, |m| {
        if on.evaluate(m) {
            Some(true)
        } else if dc.evaluate(m) {
            None
        } else {
            Some(false)
        }
    });
    assert_eq!(minimize_auto(on, dc, 12), minimize_exact(&table));
}

#[test]
fn cube_primes_match_the_minterm_oracle_on_random_functions() {
    forall("cube_primes_match_the_minterm_oracle", 300, |g| {
        let (on, dc) = draw_function(g);
        check(&on, &dc);
    });
}

#[test]
fn cube_primes_match_the_minterm_oracle_on_dense_functions() {
    // Random truth tables given as minterm cubes: many primes, little
    // structure.
    forall("cube_primes_match_the_minterm_oracle_dense", 60, |g| {
        let n = g.usize(1..9);
        let cells = g.vec(1 << n, |g| g.u8(0..3));
        let pick = |want: u8| {
            let minterms = (0..1u64 << n).filter(|&m| cells[m as usize] == want);
            Cover::from_cubes(n, minterms.map(|m| Cube::minterm(n, m)))
        };
        check(&pick(1), &pick(2));
    });
}

#[test]
fn edge_cases_match_the_minterm_oracle() {
    let cover = |n: usize, rows: &[&str]| Cover::parse_pcn(n, rows).expect("pcn rows");
    // Empty on-set, with and without don't-cares.
    check(&Cover::empty(4), &Cover::empty(4));
    check(&Cover::empty(4), &cover(4, &["1-0-"]));
    assert!(primes_of_cubes([]).is_empty());
    // Tautology: from the universe, from complementary halves, and with
    // the dc-set completing the on-set.
    check(&Cover::tautology_cover(3), &Cover::empty(3));
    check(&cover(3, &["1--", "0--"]), &Cover::empty(3));
    check(&cover(3, &["1--"]), &cover(3, &["0--"]));
    assert_eq!(
        primes_of_cubes(cover(3, &["1-1", "0--", "--0"]).cubes().iter().copied()),
        vec![Cube::universe()]
    );
    // A single minterm.
    check(&cover(5, &["10110"]), &Cover::empty(5));
    check(&cover(12, &["101101011010"]), &Cover::empty(12));
    // Every one-variable function: each of the two minterms off, on or dc.
    for cells in 0..9u32 {
        let pick = |want: u32| {
            let minterms = (0..2u64).filter(|&m| cells / 3u32.pow(m as u32) % 3 == want);
            Cover::from_cubes(1, minterms.map(|m| Cube::minterm(1, m)))
        };
        check(&pick(1), &pick(2));
    }
}
