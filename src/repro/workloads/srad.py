"""srad_1 — speckle-reducing anisotropic diffusion, kernel 1 (Rodinia).

One thread per pixel: load the 4-neighbour stencil, compute the diffusion
coefficient (divergent boundary handling plus SFU math), then run a local
smoothing loop whose trip count depends on the pixel's contrast bucket —
the per-pixel iterative refinement that gives srad_1 the highest warp
execution-time disparity in the paper's Figure 1 (about 70%).
"""

from __future__ import annotations

import numpy as np

from ..isa.instructions import CmpOp, Special
from ..isa.kernel import KernelBuilder
from .base import LaunchSpec, Workload


class SradWorkload(Workload):
    name = "srad_1"
    category = "Sens"
    dataset = "64x64 image, contrast-driven refinement (502x458 in the paper)"

    def __init__(
        self,
        seed: int = 23,
        scale: float = 1.0,
        rows: int = 64,
        cols: int = 64,
        max_refine: int = 24,
        block_dim: int = 256,
    ) -> None:
        super().__init__(seed=seed, scale=scale)
        # At least 9 rows: the noisy 8x8 patches need a row range to land in.
        self.rows = max(9, self._int(rows))
        self.cols = cols
        self.max_refine = max_refine
        self.block_dim = block_dim

    def build(self, gpu) -> LaunchSpec:
        rows, cols = self.rows, self.cols
        n = rows * cols
        # Mix smooth regions with noisy patches so contrast varies by warp.
        image = self.rng.rand(rows, cols) * 0.05
        num_patches = max(1, n // 512)
        for _ in range(num_patches):
            r = self.rng.randint(0, rows - 8)
            c = self.rng.randint(0, cols - 8)
            image[r : r + 8, c : c + 8] += self.rng.rand(8, 8)
        flat = image.ravel()

        mem = gpu.memory
        base_img = mem.alloc_array(flat)
        base_coef = mem.alloc_array(np.zeros(n))
        base_out = mem.alloc_array(np.zeros(n))

        b = KernelBuilder("srad_1")
        # The laplacian accumulator below mirrors the real SRAD kernel's
        # instruction stream even though the simplified diffusion
        # coefficient only consumes the gradient term; the final
        # accumulation is therefore a (deliberate) dead write.
        b.waive_lint(
            "DF002",
            "laplacian statistic kept for instruction-stream fidelity; "
            "the simplified coefficient drops the term",
        )
        tid = b.sreg(Special.GTID)
        in_range = b.pred()
        b.setp(in_range, CmpOp.LT, tid, float(n))
        with b.if_then(in_range):
            # row = floor(tid / cols); col = tid - row * cols
            rowf = b.reg()
            b.mul(rowf, tid, 1.0 / cols)
            row = b.reg()
            b.floor(row, rowf)
            col = b.reg()
            b.mad(col, row, float(-cols), tid)
            # Clamped neighbour indices (replicate-edge boundary).
            rn = b.reg()
            b.max_(rn, b.sub(b.reg(), row, 1.0), 0.0)
            rs = b.reg()
            b.min_(rs, b.add(b.reg(), row, 1.0), float(rows - 1))
            cw = b.reg()
            b.max_(cw, b.sub(b.reg(), col, 1.0), 0.0)
            ce = b.reg()
            b.min_(ce, b.add(b.reg(), col, 1.0), float(cols - 1))

            def pixel(r, c):
                idx = b.reg()
                b.mad(idx, r, float(cols), c)
                return b.ld(b.addr(idx, base=base_img, scale=8))

            jc = pixel(row, col)
            jn = pixel(rn, col)
            js = pixel(rs, col)
            jw = pixel(row, cw)
            je = pixel(row, ce)

            # SRAD diffusion coefficient (simplified): gradient and
            # laplacian statistics around the pixel, squashed by exp.
            g2 = b.const(0.0)
            lap = b.const(0.0)
            for nb in (jn, js, jw, je):
                d = b.reg()
                b.sub(d, nb, jc)
                b.mad(g2, d, d, g2)
                b.add(lap, lap, d)
            safe_jc = b.reg()
            b.max_(safe_jc, jc, 1e-6)
            inv = b.reg()
            b.rcp(inv, safe_jc)
            num = b.reg()
            b.mul(num, g2, inv)
            b.mul(num, num, inv)
            coef = b.reg()
            ncoef = b.reg()
            b.neg(ncoef, num)
            b.exp(coef, ncoef)
            b.st(b.addr(tid, base=base_coef, scale=8), coef)

            # Contrast-dependent refinement: noisy pixels iterate longer.
            # iters = min(max_refine, floor(g2 * 8)) over the raw gradient.
            itersf = b.reg()
            b.mul(itersf, g2, 8.0)
            b.floor(itersf, itersf)
            b.min_(itersf, itersf, float(self.max_refine))
            acc = b.reg()
            b.mov(acc, jc)
            k = b.const(0.0)
            ref_done = b.pred()
            with b.loop() as refine:
                b.setp(ref_done, CmpOp.GE, k, itersf)
                refine.break_if(ref_done)
                # One damped Jacobi step toward the neighbour mean.
                mean = b.reg()
                b.add(mean, jn, js)
                b.add(mean, mean, jw)
                b.add(mean, mean, je)
                b.mul(mean, mean, 0.25)
                d = b.reg()
                b.sub(d, mean, acc)
                b.mad(acc, d, 0.25, acc)
                b.add(k, k, 1.0)
            b.st(b.addr(tid, base=base_out, scale=8), acc)
        kernel = b.build()

        grid_dim = (n + self.block_dim - 1) // self.block_dim

        def verifier(gpu_) -> bool:
            coef = gpu_.memory.read_array(base_coef, n).reshape(rows, cols)
            out = gpu_.memory.read_array(base_out, n).reshape(rows, cols)
            padded_n = np.vstack([image[:1], image[:-1]])
            padded_s = np.vstack([image[1:], image[-1:]])
            padded_w = np.hstack([image[:, :1], image[:, :-1]])
            padded_e = np.hstack([image[:, 1:], image[:, -1:]])
            dn, ds = padded_n - image, padded_s - image
            dw, de = padded_w - image, padded_e - image
            g2 = dn**2 + ds**2 + dw**2 + de**2
            safe = np.maximum(image, 1e-6)
            expected_coef = np.exp(-(g2 / safe / safe))
            iters = np.minimum(np.floor(g2 * 8.0), self.max_refine)
            mean = 0.25 * (padded_n + padded_s + padded_w + padded_e)
            acc = image.copy()
            for step in range(int(iters.max())):
                active = iters > step
                acc = np.where(active, acc + 0.25 * (mean - acc), acc)
            return bool(
                np.allclose(coef, expected_coef, atol=1e-9)
                and np.allclose(out, acc, atol=1e-9)
            )

        return LaunchSpec(
            kernel=kernel,
            grid_dim=grid_dim,
            block_dim=self.block_dim,
            buffers={"image": base_img, "coef": base_coef, "out": base_out},
            verifier=verifier,
        )
