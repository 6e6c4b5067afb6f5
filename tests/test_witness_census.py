"""The census of witnesses: every check of `kwlab all`, with the planted
defect that fails it or one line on why it has none.

An entry is ("witness", row), a row of test_witnesses.WITNESSES (or
KERNEL_SLIPS) whose failing set names the check; ("test", "module::name"),
a test elsewhere that plants a defect against the check; or ("reason",
text).  The census fails when a check of `kwlab all` is not listed, when it
lists a check that no longer exists, and when a witness it names does not.
"""

import importlib

from test_witnesses import KERNEL_SLIPS, WITNESSES

from kwlab.suites import run_suite

ORACLE = "exact identity of the 2x2 oracle the kernels are checked against; reads 0.0"
TABLE = "integer relation of the fixed gamma/rho tables at tolerance 0; a wrong entry reads >= 1"
RELATIONS = "test_clifford::test_relation_residual_is_the_integer_defect"
HARDY = "test_cli::test_spectral_hardy_exit_follows_its_checks"
RADIAL = "test_cli::test_spectral_radial_defect_fails_verify"
PLANTS = "test_source_plants::test_planted_table_entry_fails_its_rows"
UNPLANTED = "no defect planted yet; reads "


CENSUS = {
    "algebra.product_table": ("test", PLANTS),
    "algebra.orthonormal_basis": ("reason", ORACLE),
    "algebra.null_square": ("reason", ORACLE),
    "algebra.bracket_value": ("test", PLANTS),
    "algebra.l_decompose_reconstruct": ("test", PLANTS),
    "algebra.l_eigenspaces": ("test", PLANTS),
    "algebra.su2_inner_real_positive": ("reason", UNPLANTED + "0.0 on 1000 samples"),
    "algebra.lplus_isotropic": ("reason", UNPLANTED + "0.0 against 1e-12"),
    "algebra.star_involution": ("reason", UNPLANTED + "0.0 against 1e-12"),
    "algebra.coeff_kernels_match_matrices": ("witness", "algebra.coeff_bracket"),
    **{f"clifford.{g}{i}_{relation}": ("reason", TABLE)
       for g in ("gamma", "rho") for i in (1, 2, 3)
       for relation in ("antisymmetric", "traceless",
                        "one_nonzero_entry_per_row,_entries_in_{-1,0,1}")},
    **{f"clifford.{g}{i}_{g}{j}_anticommutator": ("reason", TABLE)
       for g in ("gamma", "rho") for i in (1, 2, 3) for j in (1, 2, 3)},
    **{f"clifford.gamma{i}_rho{j}_anticommute": ("reason", TABLE)
       for i in (1, 2, 3) for j in (1, 2, 3)},
    **{f"clifford.rho1_rho2{rest}_gamma{i}": ("reason", TABLE)
       for rest in ("_commutes_with", "_rho3_anticommutes_with") for i in (1, 2, 3)},
    # the relations that gamma1 with one wrong entry breaks, in relation_checks
    "clifford.gamma1_antisymmetric": ("test", RELATIONS),
    "clifford.gamma1_one_nonzero_entry_per_row,_entries_in_{-1,0,1}": ("test", RELATIONS),
    "clifford.gamma1_gamma1_anticommutator": ("test", RELATIONS),
    # the other relations that the source plant _G1[3][0] = -1 breaks
    **{check: ("test", PLANTS) for check in (
        "clifford.gamma1_gamma2_anticommutator", "clifford.gamma1_gamma3_anticommutator",
        "clifford.gamma2_gamma1_anticommutator", "clifford.gamma3_gamma1_anticommutator",
        "clifford.gamma1_rho1_anticommute", "clifford.gamma1_rho2_anticommute",
        "clifford.gamma1_rho3_anticommute", "clifford.rho1_rho2_commutes_with_gamma1")},
    "clifford.q_spectrum": ("witness", "ad_scale"),
    "clifford.l_square": ("reason", UNPLANTED + "0.0 against 1e-13"),
    "clifford.ql_commute": ("witness", "Q"),
    "clifford.y_square": ("test", PLANTS),
    "clifford.y_componentwise": ("test", PLANTS),
    "clifford.u_orthogonal": ("witness", "U"),
    "clifford.pole_endo_eigenvalues_t1": ("witness", "ad_scale"),
    "clifford.pole_endo_eigenvalues_t2": ("witness", "ad_scale"),
    "clifford.ad_matches_bracket": ("witness", "ad_sign_clifford"),
    "clifford.flat_connection_kernel": ("witness", "ad_scale"),
    "model.theta_pythagoras": ("witness", "theta"),
    "model.reduced_equations": ("witness", "curvature"),
    "model.reduced_equations_order": ("witness", "t_difference"),
    "model.alpha_range": ("reason", UNPLANTED + "1.3e-3 inside the range at seed 0"),
    "model.alpha_t_monotone": ("reason", UNPLANTED + "d alpha/dt >= 0.055 at seed 0"),
    "model.phi_bound": ("reason", UNPLANTED + "6.4e-4 inside the bound at seed 0"),
    "model.scaling_equivariance": ("reason", UNPLANTED + "8.9e-16 against 1e-12"),
    "model.curvature_decay": ("witness", "curvature"),
    "model.decoupled_sector_solution": ("witness", "theta"),
    "model.decoupled_sector_exponent": ("reason", UNPLANTED + "0.0 against 1e-3"),
    "operator.three_depictions": ("witness", "clifford_table"),
    "operator.y_intertwine": ("witness", "clifford_table"),
    "operator.weitzenbock_remainder": ("witness", "clifford_table"),
    "operator.weitzenbock_order": ("witness", "difference_order"),
    "operator.weitzenbock_blocks": ("witness", "ad_sign"),
    "operator.remainder_structure": ("witness", "x21_sign"),
    "operator.omega_scale_invariance": ("witness", "omega_x_factor"),
    "operator.omega_q_commute": ("witness", "rho_table"),
    "operator.spatial_identification": ("witness", "clifford_table"),
    "operator.adjoint_duality":
        ("test", "test_operator::test_adjoint_duality_check_catches_wrong_adjoint"),
    "operator.norm_split":
        ("reason", UNPLANTED + "round-off, 0.0 to 2.4e-16 against 1e-9 over seeds 0-20"),
    "operator.symbol_spectrum": ("witness", "symbol"),
    "operator.mode_symbol": ("witness", "connection_sign"),
    "spectral.hardy_halfline": ("reason", UNPLANTED + "3.92 against its constant 4"),
    "spectral.hardy_halfline_sharp": ("test", HARDY),
    "spectral.hardy_cone": ("test", HARDY),
    "spectral.hardy_profile": ("reason", UNPLANTED + "1.875 of its 4, so the bound is not sharp"),
    "spectral.hemisphere_ground":
        ("test", "test_cli::test_spectral_hemisphere_coarse_mesh_fails"),
    "spectral.hemisphere_second": ("reason", UNPLANTED + "7.7e-6 against 5e-5, falling as h^2"),
    "spectral.hemisphere_eigenfunction": ("reason", UNPLANTED + "1.4e-12 against 1e-2"),
    "spectral.rayleigh_zero_potential": ("reason", UNPLANTED + "4.5e-6 against 5e-3"),
    "spectral.rayleigh_angular_mode": ("witness", "angular_term"),
    "spectral.exclusion_b3ct": ("reason", UNPLANTED + "an excluded interval 0.5 past 3/2"),
    "spectral.exclusion_case2":
        ("test", "test_cli::test_spectral_exclusion_reports_uncovered"),
    "spectral.exclusion_case3": ("reason", UNPLANTED + "an excluded interval 0.82 past 3/2"),
    "spectral.exclusion_case3_bound": ("reason", UNPLANTED + "mu_min 1.7 above 2 + (m+1)^2"),
    "spectral.radial_closed_form": ("test", RADIAL),
    "spectral.radial_identity": ("test", RADIAL),
    "spectral.radial_admissibility": ("test", RADIAL),
    "flow-smoke.zero_fixed_point": ("reason", UNPLANTED + "0.0 against 1e-14"),
    "flow-smoke.cfl_guard": ("reason", "plumbing: the guard raising is the check itself"),
    "flow-smoke.stencil_symbol": ("witness", "stencil"),
    "flow-smoke.gradient_check":
        ("test", "test_flow::test_flow_smoke_gradient_check_catches_wrong_gradient"),
    "flow-smoke.gauge_invariance":
        ("test", "test_flow::test_flow_smoke_gauge_invariance_catches_fd4_gauge_transform"),
    "flow-smoke.monotone_cs": ("witness", "flow_direction"),
    "flow-smoke.energy_identity": ("witness", "flow_step"),
    "flow-smoke.two_rate_forms": ("witness", "flow_step"),
    "flow-smoke.linear_regime_rate": ("witness", "decay_law"),
    "flow-smoke.decay_fit_oracle": ("witness", "decay_law"),
    "flow-smoke.nahm_decay_exponent": ("witness", "decay_law"),
    "flow-smoke.constant_field_oracle": ("witness", "bracket_order"),
    "flow-smoke.single_mode_decay": ("witness", "symbol_modes"),
    "flow-smoke.contraction_fixed_point": ("witness", "symbol_modes"),
    "flow-smoke.abelian_rk4_oracle": ("witness", "rk4_weights"),
}


def test_census_lists_every_check_of_all():
    ids = [c.check_id for c in run_suite("all", seed=0).checks]
    assert len(ids) == len(set(ids))
    assert sorted(set(ids) - set(CENSUS)) == [], "checks missing from the census"
    assert sorted(set(CENSUS) - set(ids)) == [], "census entries for no check"


def test_census_witnesses_exist():
    for check_id, (kind, what) in CENSUS.items():
        suite, name = check_id.split(".", 1)
        if kind == "witness" and what in KERNEL_SLIPS:
            assert check_id == "algebra.coeff_kernels_match_matrices"
        elif kind == "witness":
            _, (row_suite, _), checks, _ = WITNESSES[what]
            assert row_suite == suite and name in checks, check_id
        elif kind == "test":
            module, test = what.split("::")
            assert callable(getattr(importlib.import_module(module), test)), check_id
        else:
            assert kind == "reason" and what and "\n" not in what, check_id


def test_every_witness_row_is_in_the_census():
    named = {what for kind, what in CENSUS.values() if kind == "witness"}
    assert set(WITNESSES) <= named
