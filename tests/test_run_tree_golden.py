"""The bytes every scenario writes, pinned on small configs.

Reports and series go through one JSON serialiser and one CSV writer
(``sdelab.report``); this test pins the sha256 of every file of five short
runs, manifests included, so a change to either writer, to key order,
float formatting or line endings fails here rather than in a later diff
of a full run tree (``tools/run_tree_digest.py``).
"""

import hashlib

import pytest

from sdelab import run_scenario

CONFIGS = {
    "stationary_1d": {"scenario": "stationary_1d", "T": 0.2},
    "elliptic_energy": {"scenario": "elliptic_energy", "T": 0.1},
    "kinetic_langevin": {
        "scenario": "kinetic_langevin",
        "grid": {"bounds": [[-2.0, 2.0], [-3.0, 3.0]], "counts": [32, 32],
                 "periodic": False},
    },
    "norm_audit": {"scenario": "norm_audit"},
    "thm_1d_convergence": {"scenario": "thm_1d_convergence", "T": 0.25,
                           "n_paths": 200},
}

DIGESTS = {
    "stationary_1d": {
        "manifest.json":
            "2486ea5c052ce1f42caa9aaa5343b1cd7ed693f8e0f2d803713395061e316107",
        "reports/solver.json":
            "04317d3819bca97305e6bc0a7add4b89e5d70ec1813588c4aceacd3f45cd86a3",
        "reports/stationary_bound.json":
            "878145eda0c144ae38faa3c1f35406e0f9799afee21947c95186b2aaefaf9125",
        "series/density_final.csv":
            "d96e5b9a73ee491fa60f0afdbc491d85887f94223df86b27017a12583ee2b360",
    },
    "elliptic_energy": {
        "manifest.json":
            "fbe270b75ac29f8295cfc1081972bad0c4c4c703b88b2259d11909fc749254f3",
        "reports/energy.json":
            "13e05202475218e11f06593a4bb7c99fddd8662af1beaaab4b71443a73b7938d",
        "reports/solver.json":
            "1330aa4c7c874556911e58f43a2873fbf8d00a61283e3cb0f8afdfd9a92af283",
        "series/density_final.csv":
            "7dae7c39f7b07347899ede346d42c87ebfc641035bab41d0226490ff9b3bed02",
        "series/energy.csv":
            "4fada399abbec4fa41a9e43bed51834ab3b3655be5f2cf98ee8c3921371f2d48",
    },
    "kinetic_langevin": {
        "manifest.json":
            "72f57692c701d5bee921be246a6f6d5a65bcba7be6ceba917f7041aaa27cf341",
        "reports/max_principle.json":
            "ee222c702e815d7b30c2f72a72956905c332626971485a67ef0afaf3e046def6",
        "reports/solver.json":
            "ea198d530251d1042c1a9e3a7ddeb7c9d8fc7f952bd9fc3b3208407da7c21415",
        "series/v_marginal.csv":
            "c83396c68c717c791803d3792e826724ccbb93c22f8a6cf6a529207490f185b0",
        "series/x_marginal_final.csv":
            "50aa631a6aad797dd9191167fd23c63bdd4548dc335bb87891c56e86225470a7",
    },
    "norm_audit": {
        "manifest.json":
            "792687743d202e8f2d6ed02c0e9bd46a21198e1f662264d99e072a516462edd5",
        "reports/norm_H1.json":
            "3364af99c3ca7cb9d54999419a1b578edebeaf2910fe520a3250cdd80b1596a9",
        "reports/norm_Hhalf.json":
            "ac1b3e1b465ce330ff66d659d894f9505eed1c8ebfdb830b43bf9b0396be2706",
        "reports/norm_W11.json":
            "c03dadfbbbd63b075fa07e8165594dfa53be5473f9461e0e0b029bdfa658c812",
        "reports/norm_WphiWeak.json":
            "142a1d4b11ed79ca59b6d87db3b322f37dbeeaafca41835d809d85273a9b92a0",
        "reports/semicontinuity[Hhalf].json":
            "f72cb06d58ecacb1933c51b230b5ccc54f51a9e8e6d5fcbedd28fe74c5cc3cb2",
        "series/norms.csv":
            "80297957fe267e0ee9eb308a7fb8ce28f0f373693e1a064bd2dee197a1de7ddc",
    },
    "thm_1d_convergence": {
        "manifest.json":
            "54d89c8dbf7dc8fd03430b965a86acd834fdeba0f8942fc226c917194a31ee15",
        "reports/brownian_store.json":
            "f8e9be8d592b0c84ef283466e2eab4a8cc7c8132787b48540f9f38773afa7504",
        "reports/cauchy_diagnostic.json":
            "18d5db39dfd4cfe04042f974048dfebcdd15654b56934c2d3851fb1c98cad5c1",
        "reports/dyadic_blocks.json":
            "8f6fc7da69327834e8daf86c34b26818592d899633bb45623e811f3974faa41e",
        "reports/exit_fraction.json":
            "cfbb451e6268834da2f077e40823a434f97dc0d774971266b79f766972deb30a",
        "reports/q_ratio_shape.json":
            "b567dee85212f93000d76246ba0b162efa42df375a2c40a6fe32a608c02ce1e8",
        "series/cauchy_matrix.csv":
            "0e1cf3d41efe2da9371f082298893734ff11a73a81dbd10c895e75f6c71de709",
        "series/l_eps.csv":
            "939d8e6d9d2c3d6f3bdbb770bbab45c4b0010b02700736e1703b81cbf5ecaf90",
        "series/q_functional.csv":
            "c09e496425f5dbf90e326e306eff2f45761b1373a8085417bc949f47edaf9747",
        "series/q_tilde.csv":
            "6b11a61fd19ba16a7fb5bad9e4ac3add74a420bf195c8cbf193a6425648e037d",
    },
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_emitted_bytes_are_pinned(name, tmp_path):
    art = run_scenario(CONFIGS[name], out_dir=tmp_path)
    assert art.manifest["complete"]
    written = {str(p.relative_to(tmp_path)):
               hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.rglob("*") if p.is_file()}
    assert written == DIGESTS[name]
