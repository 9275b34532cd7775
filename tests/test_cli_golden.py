"""Byte identity of CLI stdout: sha256 and exit status for a fixed command list.

The digests pin the exact bytes each command prints, in JSON and CSV, so a
change to the output layer or to the solver call paths must reproduce them.
`solve` is pinned in CSV only: its JSON `residual` goes through a BLAS matrix
product, whose last bits depend on the BLAS build.  The cases use dirac and
binomial laws, whose pgfs are polynomials; one Poisson case keeps exp() in play.
"""

import hashlib

import pytest

from percgame.cli import main

# From kappa = 12 on, d{i}{j} would name (1, 11) and (11, 1) alike; d{i}_{j} keeps both.
KAPPA12_SWEEP = ("sweep --what solve --family dirac --m 2 --kappa 12 --grid-p0 0.8 --grid-p1 0.1 "
                 "--format csv")

GOLDEN = [
    ("solve --family dirac --m 2 --kappa 3 --p0 0.9 --p1 0.05 --format csv",
     0, "8bec088ed1647c12de1f3a1a6d02353e6c07c972c8121b24fb536c1fe35b0be7"),
    ("solve --family dirac --m 2 --kappa 3 --p0 0.9 --p1 0.05 --max-iter 5 --format csv",
     3, "3c5a9b8f051d5362db3460a1de09256f4a5cdaed78c4e20136ea24bb906d4269"),
    ("solve --family binomial --n 10 --pi 0.6 --kappa 6 --p0 0.5 --p1 0.2 --format csv",
     0, "15e325baa70308ab4368b874ce9184e92b11fac9c65994cf1d7a0942c5425786"),
    ("solve --family poisson --lam 5 --kappa 6 --p0 0.5 --p1 0.2 --format csv",
     0, "61326355ee417f209348f97a7a1af47cd2d0ec1b5c76c5fc39b6c0817fb8aa51"),
    ("fixed-points --family dirac --m 2 --kappa 3 --p0 0.875 --p1 0.025 --format json",
     0, "e25de2b103f09a05bbaf658702714649f6e7268bd8d4365e5dc6882e289c3866"),
    ("fixed-points --family dirac --m 2 --kappa 3 --p0 0.875 --p1 0.025 --format csv",
     0, "1f0b14bdcdc73a4cd3a7abe57c322663ba17b88ac92386874c542bb4f1f57587"),
    ("check-kappa2 --family binomial --n 10 --pi 0.6 --p0 0.5 --p1 0.1 --format json",
     0, "c83f4036b81dd81fddeb1a82096bbfe3cbd5666ea90c621c2c58af062470642f"),
    ("check-kappa2 --family binomial --n 10 --pi 0.6 --p0 0.5 --p1 0.1 --format csv",
     0, "e3b6dfdd9e03512e04fcbeff396ec08eddd03339608d558e1e0b510059157638"),
    ("check-kappa3 --family binomial --n 10 --pi 0.6 --p0 0.4 --p1 0.3 --format json",
     0, "3f044d9be09d914dc55fdddc8a06b527e1ba05cd80c02513136c9682e5c1b205"),
    ("check-kappa3 --family binomial --n 10 --pi 0.6 --p0 0.4 --p1 0.3 --format csv",
     0, "9b8e7797f6bcd7979bad065e808e6e6e6a0fc58b04390ad101f3c379ea187648"),
    ("check-kappa3 --family binomial --n 10 --pi 0.6 --p0 0.4 --p1 0.3 "
     "--count-fixed-points --format json",
     0, "aee0f4d4b851fc9434e6e91ebd3f26f5a251f0be2458022e1b309a49730ca5b2"),
    ("check-kappa3 --family binomial --n 10 --pi 0.6 --p0 0.4 --p1 0.3 "
     "--count-fixed-points --format csv",
     0, "19b7eae982ad992bb1977ec524df859c356a4c5ad17b49b1bc9dfdd25caffefd"),
    ("check-special --alpha 0.1 --format json",
     0, "556f076e5784407b628cbfecc486859628381b5c4cd6f6baa8710e403c7b9f1d"),
    ("check-special --alpha 0.1 --format csv",
     0, "f4e26e43a4c3ef83bc8e0d6f62321d1d20554737f02723dfc5dbb12b36e4aca3"),
    ("duration --family dirac --m 2 --kappa 7 --p0 0.4 --p1 0.3 --format json",
     0, "84a83015c98a7fbefc94a499ad2d388e146964d769729d522e50a9753f58c7e6"),
    ("duration --family dirac --m 2 --kappa 7 --p0 0.4 --p1 0.3 --format csv",
     0, "f31e2d4fb98fdad651f89814f4242388fd49b27f8b67bfab5f5704377b5c89d5"),
    ("simulate --family dirac --m 2 --kappa 3 --p0 0.8 --p1 0.1 --horizon 4 --samples 3000 "
     "--seed 7 --format json",
     0, "043c76f9df41a8a4ec40f7f05502549cdc97ed71b936c43466bcdbe9cd000243"),
    ("simulate --family dirac --m 2 --kappa 3 --p0 0.8 --p1 0.1 --horizon 4 --samples 3000 "
     "--seed 7 --format csv",
     0, "be52bc22cab0e53d1acdb8b59384be8b223ee66136faac0b98bbf6d16dad1962"),
    # large kappa, where a step recomputes only the entries whose inputs changed
    ("solve --family poisson --lam 5 --kappa 150 --p0 0.4 --p1 0.3 --format csv",
     0, "3a69873c78b799424d70161e7a3241104d2d84d55a13ffb5b6793cea10f9c84c"),
    ("duration --family poisson --lam 5 --kappa 150 --p0 0.4 --p1 0.3 --format csv",
     0, "e4a4cff305b6c313ee635ca02eb23a224f652a8cf29de0e1e9f13feab8c14c36"),
    ("solve --family dirac --m 2 --kappa 195 --p0 0.9 --p1 0.05 --format csv",
     0, "484c126936c80882bbe2afc26ce34711821ecc65fcbcfa7be98daa15fbb6c825"),
    ("duration --family dirac --m 2 --kappa 195 --p0 0.9 --p1 0.05 --format csv",
     0, "9869bbfaada781abc8167e374a182dd18b80f32aa3fda368de8b5718ea768950"),
    ("sweep --what solve --family dirac --grid-param m=2,5 --grid-p0 0.8,0.9 --grid-p1 "
     "0.05 --kappa 3 --format json",
     0, "e28dc17d3a08d39a97cf62aede2eaac6bc8197bd60bd47059cfbd83837beb951"),
    ("sweep --what solve --family dirac --grid-param m=2,5 --grid-p0 0.8,0.9 --grid-p1 "
     "0.05 --kappa 3 --format csv",
     0, "1d4c4e334f581c891c4d411de757864cf37e5156b3a6236f3fb54b2b63fbc132"),
    ("sweep --what solve --family dirac --grid-param m=2,5 --grid-p0 0.8,0.9 --grid-p1 "
     "0.05 --kappa 3 --max-iter 5 --format csv",
     3, "22519037ec93246d3a88120e06c33354e32578fd3fb473aec7cc4ecf6f448e80"),
    (KAPPA12_SWEEP,
     0, "58972d944dca1f531d87229bc526f14acd003c2df08a2751bf76ad98b418739a"),
    ("sweep --what check-kappa2 --family binomial --pi 0.6 --grid-param n=5,10 --grid-p0 "
     "0.9,0.5 --grid-p1 0.05 --format json",
     0, "760ab1141075721e18f5bc2ea1910b3ff66a35f48dead49bce94aaaaf46dcd01"),
    ("sweep --what check-kappa2 --family binomial --pi 0.6 --grid-param n=5,10 --grid-p0 "
     "0.9,0.5 --grid-p1 0.05 --format csv",
     0, "3c26898318965895374c5a9e9bdfe4979f84e86dd21c7adcb656c838cae9fb41"),
    ("sweep --what check-kappa3 --family binomial --n 10 --pi 0.6 --count-fixed-points "
     "--grid-p0 0.2,0.5,0.8 --grid-p1 0.01,0.05 --format json",
     0, "b0dddfd79d0cf67d065399f64592fd6d0b368dfe9589787e44d3e9a4b40fa1b6"),
    ("sweep --what check-kappa3 --family binomial --n 10 --pi 0.6 --count-fixed-points "
     "--grid-p0 0.2,0.5,0.8 --grid-p1 0.01,0.05 --format csv",
     0, "f8a76b23b12de0d8af254dc09f0a7593e65bb79a8fd8c9ee16b0ac1506e55d82"),
]


@pytest.mark.parametrize("argv, status, digest", GOLDEN, ids=[argv for argv, _, _ in GOLDEN])
def test_cli_stdout_is_byte_identical(capsys, argv, status, digest):
    code = main(argv.split())
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == (status, digest)


@pytest.mark.parametrize("kappa", (10, 11, 12))
def test_solve_sweep_keeps_every_draw_column(capsys, kappa):
    # the columns are d{i}_{j} once a capital has two digits, from kappa = 11 on
    assert main(KAPPA12_SWEEP.replace("--kappa 12", f"--kappa {kappa}").split()) == 0
    header = capsys.readouterr().out.split("\r\n")[0].split(",")
    n = kappa - 1
    sep = "_" if kappa >= 11 else ""
    assert len(header) == len(set(header)) == 3 + n ** 2
    assert header[:4] == ["distribution", "p0", "p1", f"d1{sep}1"]
    assert {f"d1{sep}{n}", f"d{n}{sep}1", f"d{n}{sep}{n}"} <= set(header)
