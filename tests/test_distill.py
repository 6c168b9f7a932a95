"""Two-phase distillation: loss identities, gradient structure, loop
mechanics. The heavier statistical checks live in the acceptance suite.
"""

import hashlib

import numpy as np
import pytest

from simdistill.diffusion import DiffusionSpec, TimeDistribution, WeightingFn
from simdistill.distances import DistanceFn, default_pseudo_huber_c
from simdistill.distill import (
    DistillConfig,
    DistillResult,
    DivergenceHalt,
    GeneratorSpec,
    PreconditionedDenoiser,
    build_generator,
    di_generator_loss,
    dsm_loss,
    graph_field,
    linear_generator,
    run_distillation,
    sid_delta_generator_loss,
    sim_generator_loss,
)
from simdistill.nnkit import MlpNet, backward
from simdistill.nnkit import tensor as T
from simdistill.oracles import GaussianSpec, LinearGenerator, gaussian_sample, ring_gmm
from simdistill.rng import make_rng

SPEC = DiffusionSpec()
TDIST = TimeDistribution.log_normal(-1.0, 1.0)
ONE = WeightingFn.one()
ALL_FNS = [
    DistanceFn.l2(),
    DistanceFn.l1(),
    DistanceFn.huber(1.0),
    DistanceFn.pseudo_huber(0.5),
    DistanceFn.power(4),
    DistanceFn.exp_power(2, 0.3),
]


TILTED = LinearGenerator(np.array([[1.0, 0.3], [0.0, 0.8]]), np.array([0.5, -0.2]))


def tilted_linear_gen():
    return linear_generator(TILTED)


class TestFixedPoint:
    @pytest.mark.parametrize("form", ["denoiser", "score"])
    @pytest.mark.parametrize("d", ALL_FNS, ids=lambda d: d.tag)
    def test_zero_loss_and_gradient_when_online_equals_teacher(self, form, d):
        gmm = ring_gmm()
        fld = graph_field(gmm, form)
        gen = tilted_linear_gen()
        loss = sim_generator_loss(gen, fld, fld, d, SPEC, TDIST, ONE, 64, make_rng(3), loss_form=form)
        grads = backward(loss, gen.parameters())
        assert loss.item() == 0.0
        assert max(np.abs(g).max() for g in grads) <= 1e-12

    def test_fixed_point_with_detached_first_factor(self):
        gmm = ring_gmm()
        fld = graph_field(gmm, "denoiser")
        gen = tilted_linear_gen()
        loss = sim_generator_loss(
            gen, fld, fld, DistanceFn.pseudo_huber(0.5), SPEC, TDIST, ONE, 64, make_rng(3),
            first_factor_grad=False,
        )
        grads = backward(loss, gen.parameters())
        assert loss.item() == 0.0
        assert max(np.abs(g).max() for g in grads) <= 1e-12


class TestDeltaLossEquivalence:
    @pytest.mark.parametrize("form", ["denoiser", "score"])
    def test_generic_l2_matches_dedicated_path(self, form):
        gmm = ring_gmm()
        other = GaussianSpec(np.array([0.5, -0.3]), 0.7 * np.eye(2))
        teacher, online = graph_field(gmm, form), graph_field(other, form)
        gen = tilted_linear_gen()
        la = sim_generator_loss(
            gen, online, teacher, DistanceFn.l2(), SPEC, TDIST, WeightingFn.edm(), 128,
            make_rng(7), loss_form=form,
        )
        ga = backward(la, gen.parameters())
        lb = sid_delta_generator_loss(
            gen, online, teacher, SPEC, TDIST, WeightingFn.edm(), 128, make_rng(7), loss_form=form
        )
        gb = backward(lb, gen.parameters())
        assert la.item() == pytest.approx(lb.item(), rel=1e-12)
        for a, b in zip(ga, gb):
            assert np.abs(a - b).max() <= 1e-12 * max(np.abs(b).max(), 1e-300)


class TestGradientAgainstFiniteDifferences:
    @pytest.mark.parametrize("form", ["denoiser", "score"])
    def test_linear_generator_crn_fd(self, form):
        # the training-position gradient: the same loss evaluated under
        # common random numbers, finite-differenced over the flat (A, b)
        gmm = ring_gmm()
        other = GaussianSpec(np.array([0.5, -0.3]), 0.7 * np.eye(2))
        teacher, online = graph_field(gmm, form), graph_field(other, form)
        tdist = TimeDistribution.fixed_grid((0.5, 1.0, 2.0))

        def loss_at(theta, seed=91):
            gen = linear_generator(LinearGenerator.from_flat(theta, 2, 2))
            return sim_generator_loss(
                gen, online, teacher, DistanceFn.l2(), SPEC, tdist, ONE, 256,
                make_rng(seed), loss_form=form,
            )

        gen = tilted_linear_gen()
        theta0 = TILTED.flat()
        loss = sim_generator_loss(
            gen, online, teacher, DistanceFn.l2(), SPEC, tdist, ONE, 256, make_rng(91),
            loss_form=form,
        )
        flat_grad = TILTED.flat_grad(backward(loss, gen.parameters()))
        h = 1e-5
        for i in range(theta0.size):
            e = np.zeros_like(theta0)
            e[i] = h
            fd = (loss_at(theta0 + e).item() - loss_at(theta0 - e).item()) / (2 * h)
            assert flat_grad[i] == pytest.approx(fd, rel=2e-4, abs=1e-7)


class TestFirstFactorFlag:
    def test_detaching_changes_gradient_not_value(self):
        gmm = ring_gmm()
        other = GaussianSpec(np.array([1.0, 0.0]), np.eye(2))
        teacher, online = graph_field(gmm, "denoiser"), graph_field(other, "denoiser")
        gen = tilted_linear_gen()
        args = (gen, online, teacher, DistanceFn.pseudo_huber(0.5), SPEC, TDIST, ONE, 128)
        la = sim_generator_loss(*args, make_rng(17), first_factor_grad=True)
        ga = TILTED.flat_grad(backward(la, gen.parameters()))
        lb = sim_generator_loss(*args, make_rng(17), first_factor_grad=False)
        gb = TILTED.flat_grad(backward(lb, gen.parameters()))
        assert la.item() == lb.item()  # same draws, same forward value
        assert np.abs(ga - gb).max() > 1e-6  # but a different gradient field


class TestEnvelope:
    def test_pseudo_huber_per_sample_bound_reported(self):
        gmm = ring_gmm()
        other = GaussianSpec(np.array([2.0, 1.0]), 2.0 * np.eye(2))
        teacher, online = graph_field(gmm, "denoiser"), graph_field(other, "denoiser")
        gen = tilted_linear_gen()
        info = {}
        sim_generator_loss(
            gen, online, teacher, DistanceFn.pseudo_huber(0.2), SPEC, TDIST, ONE, 256,
            make_rng(19), info=info,
        )
        assert info["bounded"] is True
        assert info["per_sample_max"] <= info["envelope_max"] + 1e-9


class TestDiBaseline:
    def test_gradient_pushes_mean_toward_teacher(self):
        # generator sits at +2, teacher at 0; the online field equals the
        # generator's own distribution, so the b-gradient must be positive
        # (gradient descent then moves b down toward the teacher).
        teacher = graph_field(GaussianSpec(np.zeros(1), np.eye(1)), "score")
        online = graph_field(GaussianSpec(np.array([2.0]), np.eye(1)), "score")
        gen = linear_generator(LinearGenerator(np.eye(1), np.array([2.0])))
        loss = di_generator_loss(gen, online, teacher, SPEC, TDIST, ONE, 512, make_rng(23))
        _, gb = backward(loss, gen.parameters())
        assert gb[0] > 0


class TestDsmLoss:
    def test_oracle_denoiser_attains_posterior_variance(self):
        # teacher N(0, I): at fixed t the best denoiser has expected squared
        # residual t²/(1+t²) per coordinate
        from simdistill.oracles import gmm_denoiser_graph, GmmSpec

        gauss = GmmSpec(np.array([1.0]), np.zeros((1, 1)), 1.0)
        oracle = lambda x, t: gmm_denoiser_graph(gauss, x, t)
        t = 1.0
        n = 4096
        x0 = gaussian_sample(GaussianSpec(np.zeros(1), np.eye(1)), make_rng(29), n)
        loss = dsm_loss(
            oracle, x0, SPEC, TimeDistribution.fixed_grid((t,)), ONE, make_rng(30)
        )
        want = t * t / (1 + t * t)
        se = np.sqrt(2 * want**2 / n)
        assert abs(loss.item() - want) <= 3 * se

    def test_zero_net_loss_is_weighted_second_moment(self):
        # an all-zero denoiser leaves the clean signal as the residual
        net = MlpNet([1, 8, 1], conditioning="concat-log-t", zero_final=True, seed=0)
        x0 = np.full((256, 1), 2.0)
        t = 3.0
        loss = dsm_loss(net, x0, SPEC, TimeDistribution.fixed_grid((t,)), ONE, make_rng(31))
        assert loss.item() == pytest.approx(4.0, rel=1e-12)

    def test_short_training_reduces_loss(self):
        from simdistill.nnkit import Adam

        net = MlpNet([2, 32, 32, 2], conditioning="concat-log-t", zero_final=True, seed=1)
        opt = Adam(net.named_parameters(), lr=1e-3)
        data = gaussian_sample(GaussianSpec(np.zeros(2), np.eye(2)), make_rng(32), 8192)
        rng = make_rng(33)
        tdist = TimeDistribution.log_normal(-1.2, 1.2)
        losses = []
        for step in range(300):
            x0 = data[rng.integers(0, len(data), 128)]
            loss = dsm_loss(net, x0, SPEC, tdist, WeightingFn.edm(), rng)
            opt.step(backward(loss, net.parameters()))
            losses.append(loss.item())
        assert np.mean(losses[-50:]) < 0.5 * np.mean(losses[:50])

    def test_rejects_unknown_form(self):
        net = MlpNet([1, 4, 1], conditioning="concat-log-t", seed=0)
        with pytest.raises(ValueError, match="form"):
            dsm_loss(net, np.zeros((4, 1)), SPEC, TDIST, ONE, make_rng(0), net_form="energy")


class TestPreconditionedDenoiser:
    def test_reduces_to_identity_at_small_t(self):
        net = MlpNet([2, 16, 2], conditioning="concat-log-t", seed=3)
        head = PreconditionedDenoiser(net, sigma_data=0.5)
        x = make_rng(40).standard_normal((32, 2))
        out = head(x, np.full(32, 1e-8)).data
        assert np.allclose(out, x, atol=1e-6)

    def test_matches_hand_assembled_coefficients(self):
        sd = 0.7
        net = MlpNet([2, 16, 2], conditioning="concat-log-t", seed=4)
        head = PreconditionedDenoiser(net, sigma_data=sd)
        rng = make_rng(41)
        x = rng.standard_normal((64, 2))
        t = rng.uniform(0.05, 3.0, 64)
        var = (sd * sd + t * t)[:, None]
        c_in = 1.0 / np.sqrt(var)
        want = x * (sd * sd / var) + net(x * c_in, t).data * (sd * t[:, None] / np.sqrt(var))
        assert np.array_equal(head(x, t).data, want)

    def test_dsm_gradients_match_finite_differences(self):
        net = MlpNet([1, 4, 1], conditioning="concat-log-t", seed=5)
        head = PreconditionedDenoiser(net)
        x0 = make_rng(42).standard_normal((16, 1))
        tdist = TimeDistribution.fixed_grid((0.5, 2.0))

        def loss_value():
            return dsm_loss(head, x0, SPEC, tdist, WeightingFn.edm(), make_rng(43))

        grads = backward(loss_value(), head.parameters())
        h = 1e-6
        for p, g in zip(head.parameters(), grads):
            flat = p.data.reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + h
                up = loss_value().item()
                flat[i] = keep - h
                down = loss_value().item()
                flat[i] = keep
                fd = (up - down) / (2 * h)
                assert abs(g.reshape(-1)[i] - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_rejects_non_positive_sigma_data(self):
        net = MlpNet([1, 4, 1], conditioning="concat-log-t", seed=0)
        with pytest.raises(ValueError, match="sigma_data"):
            PreconditionedDenoiser(net, sigma_data=0.0)


class TestGeneratorConstruction:
    def test_mlp_widths_default_and_validation(self):
        gen = build_generator(GeneratorSpec(latent_dim=3), data_dim=2, dspec=SPEC, seed=0)
        assert gen.latent_dim == 3 and gen.data_dim == 2
        z = gen.sample_latent(make_rng(1), 16)
        assert z.shape == (16, 3)
        assert gen.forward(z).data.shape == (16, 2)
        with pytest.raises(ValueError, match="widths"):
            build_generator(
                GeneratorSpec(latent_dim=3, widths=(2, 8, 2)), data_dim=2, dspec=SPEC, seed=0
            )

    def test_denoiser_as_generator_latent_scale_and_t_star(self):
        gspec = GeneratorSpec(tag="denoiser-as-generator", t_star=2.5)
        gen = build_generator(gspec, data_dim=2, dspec=SPEC, seed=0)
        z = gen.sample_latent(make_rng(2), 50_000)
        assert z.std() == pytest.approx(2.5, rel=0.02)
        with pytest.raises(ValueError, match="t_star"):
            build_generator(
                GeneratorSpec(tag="denoiser-as-generator", t_star=100.0), 2, SPEC, seed=0
            )

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="tag"):
            GeneratorSpec(tag="flow")

    def test_linear_generator_matches_numpy(self):
        rng = make_rng(4)
        p = LinearGenerator(rng.standard_normal((3, 2)), rng.standard_normal(3))
        gen = linear_generator(p)
        z = rng.standard_normal((8, 2))
        np.testing.assert_allclose(gen.forward(z).data, z @ p.A.T + p.b, rtol=1e-14)
        assert np.array_equal(gen.sample(make_rng(5), 8), gen.forward(gen.sample_latent(make_rng(5), 8)).data)
        flat = LinearGenerator.flat_grad(backward(T.tsum(gen.forward(z)), gen.parameters()))
        # ∂/∂A_ij of the summed output is Σ_n z_nj, and ∂/∂b_i is n, in flat() order
        np.testing.assert_allclose(flat, np.concatenate([np.tile(z.sum(axis=0), 3), np.full(3, 8.0)]), rtol=1e-14)


class TestRunDistillation:
    CFG = dict(score_lr=1e-3, gen_lr=1e-3, batch_size=32, eval_interval=5,
               eval_samples=64, final_eval_samples=128)

    def test_zero_steps_leaves_generator_at_init(self):
        gmm = ring_gmm()
        cfg = DistillConfig(gen_steps=0, **self.CFG)
        res = run_distillation(cfg, gmm, gmm, seed=5)
        fresh = run_distillation(cfg, gmm, gmm, seed=5)
        for a, b in zip(res.generator.parameters(), fresh.generator.parameters()):
            assert np.array_equal(a.data, b.data)
        assert isinstance(res, DistillResult)
        assert res.final_samples.shape == (128, 2)

    def test_deterministic_given_seed(self):
        gmm = ring_gmm()
        cfg = DistillConfig(gen_steps=10, **self.CFG)
        a = run_distillation(cfg, gmm, gmm, seed=7)
        b = run_distillation(cfg, gmm, gmm, seed=7)
        for pa, pb in zip(a.generator.parameters(), b.generator.parameters()):
            assert np.array_equal(pa.data, pb.data)
        assert [r.to_csv() for r in a.rows] == [r.to_csv() for r in b.rows]
        assert np.array_equal(a.final_samples, b.final_samples)

    def test_seed_changes_trajectory(self):
        gmm = ring_gmm()
        cfg = DistillConfig(gen_steps=5, **self.CFG)
        a = run_distillation(cfg, gmm, gmm, seed=1)
        b = run_distillation(cfg, gmm, gmm, seed=2)
        assert any(
            not np.array_equal(pa.data, pb.data)
            for pa, pb in zip(a.generator.parameters(), b.generator.parameters())
        )

    def test_eval_cadence_does_not_perturb_training(self):
        gmm = ring_gmm()
        base = dict(self.CFG)
        a = run_distillation(DistillConfig(gen_steps=10, **base), gmm, gmm, seed=9)
        base["eval_interval"] = 2  # more evals, same training stream
        b = run_distillation(DistillConfig(gen_steps=10, **base), gmm, gmm, seed=9)
        for pa, pb in zip(a.generator.parameters(), b.generator.parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_rows_schedule_and_wall_time_default(self):
        gmm = ring_gmm()
        cfg = DistillConfig(gen_steps=10, **self.CFG)
        res = run_distillation(cfg, gmm, gmm, seed=11)
        assert [r.step for r in res.rows] == [5, 10]  # cadence, then the final row
        assert all(r.seconds == 0.0 for r in res.rows)
        assert all(np.isfinite(r.mmd) for r in res.rows)
        assert all(0.0 <= r.mode_coverage <= 1.0 for r in res.rows)

    def test_divergence_halt_reports_step(self):
        gmm = ring_gmm()
        cfg = DistillConfig(gen_steps=10, divergence_threshold=1e-300, **self.CFG)
        with pytest.raises(DivergenceHalt) as exc:
            run_distillation(cfg, gmm, gmm, seed=13)
        assert exc.value.step == 1
        assert "halted" in str(exc.value)

    def test_warm_start_from_matching_teacher_net(self):
        teacher = MlpNet([2, 64, 64, 2], conditioning="concat-log-t", seed=3)
        cfg = DistillConfig(gen_steps=0, **self.CFG)
        res = run_distillation(cfg, teacher, ring_gmm(), seed=15)
        for (_, a), (_, b) in zip(
            sorted(teacher.state_dict().items()), sorted(res.online_net.state_dict().items())
        ):
            assert np.array_equal(a, b)

    def test_array_reference_for_eval(self):
        gmm = ring_gmm()
        data = ring_gmm().means.repeat(64, axis=0)  # plain ndarray reference
        cfg = DistillConfig(gen_steps=4, **{**self.CFG, "eval_interval": 2})
        res = run_distillation(cfg, gmm, data, seed=17)
        assert all(np.isnan(r.mode_coverage) for r in res.rows)  # no mixture to cover
        assert all(np.isfinite(r.mmd) for r in res.rows)

    def test_di_baseline_runs(self):
        # the baseline's loss value scales like 1/t², so keep the generator
        # phase away from tiny times
        gmm = ring_gmm()
        cfg = DistillConfig(
            gen_steps=5, baseline="di",
            gen_time_dist=TimeDistribution.log_normal(0.0, 0.5), **self.CFG,
        )
        res = run_distillation(cfg, gmm, gmm, seed=19)
        assert [r.step for r in res.rows] == [5]  # the final row only

    def test_step_callback_sees_every_step(self):
        gmm = ring_gmm()
        seen = []
        cfg = DistillConfig(gen_steps=6, **self.CFG)
        run_distillation(cfg, gmm, gmm, seed=21, step_callback=lambda s, a, b: seen.append(s))
        assert seen == [1, 2, 3, 4, 5, 6]


def test_tape_free_sampling_leaves_the_loop_bit_identical(monkeypatch):
    # a short desk-2d ring-8 run, then the same run with every generator
    # sample taken through the tape forward instead of MlpNet.predict
    from simdistill.harness.config import parse_config

    cfg = parse_config({"tag": "ring8", "seed": 0, "preset": "desk-2d", "distill": {
        "gen_steps": 30, "eval_interval": 10, "eval_samples": 512, "final_eval_samples": 1000,
    }})
    ring = ring_gmm(8, 4.0, 0.3)

    def run():
        return run_distillation(cfg.distill, ring, ring, seed=cfg.seed, gspec=cfg.generator)

    fast = run()
    taped = []

    def tape_forward(self, x, t=None):
        taped.append(len(x))
        return self(x, t).data

    monkeypatch.setattr(MlpNet, "predict", tape_forward)
    slow = run()
    assert taped  # the second run really went through the tape
    assert [r.to_csv() for r in fast.rows] == [r.to_csv() for r in slow.rows]
    assert fast.rows == slow.rows
    a, b = fast.generator.net.state_dict(), slow.generator.net.state_dict()
    assert a.keys() == b.keys()
    assert all(a[k].tobytes() == b[k].tobytes() for k in a)
    assert fast.final_samples.tobytes() == slow.final_samples.tobytes()


# blake2b-128 digests of a 30-step desk-2d ring-8 run (evaluations every 10
# steps at 512 samples, the final one at 2048): of its rows' CSV lines, and of
# the final generator then online parameters in sorted-name order, keyed by
# (generator tag, teacher kind). The `mlp` generator's were recorded from the
# per-layer tape forward (one dense node per layer, then SiLU) that the single
# mlp node replaced, the `denoiser-as-generator` ones from the generator class
# of its own that MlpGenerator(net, t_star) replaced; the training path must
# keep every byte. The rows' digests were recorded again when the MMD kernel
# began to square its way down the bandwidth ladder: only the mmd fields moved,
# each by ≤ 4e-15 (≤ 1.7e-15 relative), and the parameter digests held.
GOLDEN_DIGESTS = {
    ("mlp", "gmm"): ("7f41540212357e8c5e2f3a3ce51971bb", "7eabb64e95fef52569e820577eb9c356"),
    ("mlp", "mlp"): ("f1b05c00814f07b086cb84f5c75c14e1", "7a21ca40cfed5eeee4e4df2b5ecccb85"),
    ("denoiser-as-generator", "gmm"): ("e660a4938a3fc52d8f7926cab9baa48d", "3686c362f1ee5f7f7812cbc70cef3c85"),
    ("denoiser-as-generator", "mlp"): ("aa2a2c504f113c61bb0629d4749f1282", "5f54ceb5f793e00e497a8a252148c606"),
}


@pytest.mark.parametrize("gen_tag, teacher_kind", sorted(GOLDEN_DIGESTS))
def test_training_path_reproduces_its_golden_digests(gen_tag, teacher_kind):
    from simdistill.harness.config import parse_config

    cfg = parse_config({"tag": "ring8", "seed": 0, "preset": "desk-2d", "generator": {"tag": gen_tag}, "distill": {
        "gen_steps": 30, "eval_interval": 10, "eval_samples": 512, "final_eval_samples": 2048,
    }})
    ring = ring_gmm(8, 4.0, 0.3)
    teacher = ring if teacher_kind == "gmm" else MlpNet([2, 32, 32, 2], conditioning="concat-log-t", seed=5)
    res = run_distillation(cfg.distill, teacher, ring, seed=cfg.seed, gspec=cfg.generator)

    def digest(chunks):
        h = hashlib.blake2b(digest_size=16)
        for chunk in chunks:
            h.update(chunk)
        return h.hexdigest()

    states = (res.generator.net.state_dict(), res.online_net.state_dict())
    got = (
        digest(r.to_csv().encode() for r in res.rows),
        digest(state[k].tobytes() for state in states for k in sorted(state)),
    )
    assert got == GOLDEN_DIGESTS[gen_tag, teacher_kind]


class TestConfigValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="ratio"):
            DistillConfig(gen_steps=1, ratio=0)
        with pytest.raises(ValueError, match="positive"):
            DistillConfig(gen_steps=1, gen_lr=0.0)
        with pytest.raises(ValueError, match="loss form"):
            DistillConfig(gen_steps=1, loss_form="hybrid")
        with pytest.raises(ValueError, match="baseline"):
            DistillConfig(gen_steps=1, baseline="gan")
        with pytest.raises(ValueError, match="batch"):
            DistillConfig(gen_steps=1, batch_size=1)
        with pytest.raises(ValueError, match="gen_steps"):
            DistillConfig(gen_steps=-1)

    def test_defaults_follow_reference_recipe(self):
        cfg = DistillConfig(gen_steps=1)
        assert cfg.score_lr == 1e-5 and cfg.gen_lr == 1e-5
        assert cfg.batch_size == 256 and cfg.ratio == 2
        assert cfg.distance.tag == "pseudo_huber"
        assert cfg.distance.c == pytest.approx(default_pseudo_huber_c(2))
        assert cfg.gen_weighting.kind == "one" and cfg.score_weighting.kind == "edm"
        assert cfg.loss_form == "denoiser" and cfg.first_factor_grad
