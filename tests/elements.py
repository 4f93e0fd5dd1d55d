"""Random ring elements shared by the test modules."""


def random_witt(cfg, rng, prec=None):
    q = cfg.p ** cfg.prec
    return cfg.w(tuple(rng.randrange(q) for _ in range(cfg.m)), prec)


def random_strunc(cfg, rng, max_deg=None):
    max_deg = cfg.e * cfg.p if max_deg is None else max_deg
    deg = rng.randrange(1, max_deg + 1)
    return cfg.s([random_witt(cfg, rng) for _ in range(deg)])


def random_tilde(cfg, rng, max_deg=None):
    max_deg = cfg.e * cfg.p if max_deg is None else max_deg
    deg = rng.randrange(1, max_deg + 1)
    return cfg.tilde([tuple(rng.randrange(cfg.p) for _ in range(cfg.m))
                      for _ in range(deg)])


def random_tilde_unit(cfg, rng, max_deg=None):
    x = random_tilde(cfg, rng, max_deg)
    coeffs = list(x.coeffs)
    while coeffs[0].is_zero():
        coeffs[0] = cfg.gf.elem(tuple(rng.randrange(cfg.p)
                                      for _ in range(cfg.m)))
    return cfg.tilde(coeffs)


def random_k_elem(cfg, rng, pexp_max=1):
    coeffs = [random_witt(cfg, rng) for _ in range(cfg.e)]
    return cfg.k_elem(coeffs, rng.randrange(pexp_max + 1))
