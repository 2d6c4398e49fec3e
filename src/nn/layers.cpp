#include "nn/layers.h"

#include <cmath>
#include <cstring>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/thread_pool.h"
#include "tensor/workspace.h"

#include "util/check.h"

namespace cham::nn {
namespace {

// He-normal initialisation for convolution / linear weights.
void he_init(Tensor& w, int64_t fan_in, Rng& rng) {
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  for (int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal_f(0.0f, stddev);
}

// A 1x1 stride-1 unpadded convolution is a plain channel-mixing GEMM: the
// im2col column matrix of such a conv IS the input plane (in_c x pixels),
// so both forward and backward skip the expansion and the scratch matrix.
// MobileNet spends most of its MACs in these pointwise convs.
bool is_pointwise(const ConvGeometry& g) {
  return g.kernel == 1 && g.stride == 1 && g.pad == 0;
}

constexpr int64_t kElemGrain = 16384;

}  // namespace

// ---------------------------------------------------------------- Conv2d

Conv2d::Conv2d(int64_t in_c, int64_t out_c, int64_t in_h, int64_t in_w,
               int64_t kernel, int64_t stride, int64_t pad, bool bias,
               Rng& rng, bool init)
    : geo_{in_c, in_h, in_w, kernel, stride, pad},
      out_c_(out_c),
      has_bias_(bias),
      weight_(Shape{{out_c, in_c * kernel * kernel}}),
      bias_(Shape{{out_c}}) {
  if (init) he_init(weight_.value, in_c * kernel * kernel, rng);
}

int64_t Conv2d::macs_per_sample() const {
  return out_c_ * geo_.col_rows() * geo_.col_cols();
}

Tensor Conv2d::forward(const Tensor& x, bool train) {
  CHAM_CHECK(x.rank() == 4 && x.dim(1) == geo_.in_c && x.dim(2) == geo_.in_h &&
                 x.dim(3) == geo_.in_w,
             "Conv2d input " + x.shape().to_string());
  if (train) {
    cached_input_ = x;
    cached_gather_ = false;
  }
  const int64_t batch = x.dim(0);
  const int64_t oh = geo_.out_h(), ow = geo_.out_w();
  const int64_t opix = oh * ow;
  const int64_t ipix = geo_.in_h * geo_.in_w;
  Tensor out({batch, out_c_, oh, ow});
  const auto add_bias = [&](int64_t n) {
    for (int64_t c = 0; c < out_c_; ++c) {
      float* plane = out.data() + (n * out_c_ + c) * opix;
      const float b = bias_.value[c];
      for (int64_t i = 0; i < opix; ++i) plane[i] += b;
    }
  };
  // Pointwise convs merge the whole batch into ONE gemm along the column
  // dimension: column (n, p) of the concatenated operand is pixel p of
  // sample n, so C[c][(n,p)] accumulates the same k-ascending fma chain as
  // the per-sample call — bit-identical output, but the weight panel is
  // packed once per row chunk instead of once per sample, and the kernel
  // sees n = batch*opix wide tiles instead of the n = opix (often 1..4)
  // slivers that defeat the SIMD path.
  if (is_pointwise(geo_)) {
    if (batch == 1) {
      // Plane layout already matches the merged operand: zero-copy.
      gemm(out_c_, opix, geo_.in_c, 1.0f, weight_.value.data(), x.data(),
           0.0f, out.data());
      if (has_bias_) add_bias(0);
      return out;
    }
    const int64_t cols = batch * opix;
    ws::ArenaScope scratch;
    float* xcat = scratch.floats(static_cast<size_t>(geo_.in_c * cols));
    float* ocat = scratch.floats(static_cast<size_t>(out_c_ * cols));
    const int64_t row_grain = (kElemGrain + cols - 1) / cols;
    // Gather x[n][c][:] -> xcat[c][n*opix..]: disjoint rows per chunk.
    parallel_for(
        0, geo_.in_c,
        [&](int64_t c0, int64_t c1) {
          for (int64_t c = c0; c < c1; ++c) {
            for (int64_t n = 0; n < batch; ++n) {
              std::memcpy(xcat + c * cols + n * opix,
                          x.data() + (n * geo_.in_c + c) * ipix,
                          static_cast<size_t>(opix) * sizeof(float));
            }
          }
        },
        row_grain);
    gemm(out_c_, cols, geo_.in_c, 1.0f, weight_.value.data(), xcat, 0.0f,
         ocat);
    // Scatter ocat[c][n*opix..] -> out[n][c][:], folding the bias add.
    parallel_for(
        0, out_c_,
        [&](int64_t c0, int64_t c1) {
          for (int64_t c = c0; c < c1; ++c) {
            const float b = has_bias_ ? bias_.value[c] : 0.0f;
            for (int64_t n = 0; n < batch; ++n) {
              const float* src = ocat + c * cols + n * opix;
              float* dst = out.data() + (n * out_c_ + c) * opix;
              if (has_bias_) {
                for (int64_t i = 0; i < opix; ++i) dst[i] = src[i] + b;
              } else {
                std::memcpy(dst, src,
                            static_cast<size_t>(opix) * sizeof(float));
              }
            }
          }
        },
        row_grain);
    return out;
  }
  const auto body = [&](int64_t n0, int64_t n1) {
    ws::ArenaScope scratch;
    float* col =
        scratch.floats(static_cast<size_t>(geo_.col_rows() * geo_.col_cols()));
    for (int64_t n = n0; n < n1; ++n) {
      im2col(x.data() + n * geo_.in_c * ipix, geo_, col);
      gemm(out_c_, geo_.col_cols(), geo_.col_rows(), 1.0f,
           weight_.value.data(), col, 0.0f, out.data() + n * out_c_ * opix);
      if (has_bias_) add_bias(n);
    }
  };
  if (batch == 1) {
    body(0, 1);
  } else {
    parallel_for(0, batch, body);
  }
  return out;
}

Tensor Conv2d::forward_gather(const GatherBatch& gb, bool train) {
  const int64_t ipix = geo_.in_h * geo_.in_w;
  CHAM_CHECK(gb.sample_numel() == geo_.in_c * ipix,
             "Conv2d gathered sample " + gb.sample_shape.to_string());
  if (train) {
    cached_rows_.assign(gb.rows, gb.rows + gb.n);
    cached_gather_ = true;
    cached_input_ = Tensor();
  }
  const int64_t batch = gb.n;
  const int64_t oh = geo_.out_h(), ow = geo_.out_w();
  const int64_t opix = oh * ow;
  Tensor out({batch, out_c_, oh, ow});
  const auto add_bias = [&](int64_t n) {
    for (int64_t c = 0; c < out_c_; ++c) {
      float* plane = out.data() + (n * out_c_ + c) * opix;
      const float b = bias_.value[c];
      for (int64_t i = 0; i < opix; ++i) plane[i] += b;
    }
  };
  if (is_pointwise(geo_)) {
    if (batch == 1) {
      // A single gathered sample is already one contiguous plane.
      gemm(out_c_, opix, geo_.in_c, 1.0f, weight_.value.data(), gb.rows[0],
           0.0f, out.data());
      if (has_bias_) add_bias(0);
      return out;
    }
    // Same merged single-GEMM as the dense path, but the concatenated
    // operand is never materialised: column (n, p) of the logical xcat
    // reads sample n's plane in place through the column-gather pack.
    // Values and accumulation order match the dense path exactly.
    const int64_t cols = batch * opix;
    colptr_scratch_.resize(static_cast<size_t>(cols));
    for (int64_t n = 0; n < batch; ++n) {
      for (int64_t p = 0; p < opix; ++p) {
        colptr_scratch_[static_cast<size_t>(n * opix + p)] = gb.rows[n] + p;
      }
    }
    ws::ArenaScope scratch;
    float* ocat = scratch.floats(static_cast<size_t>(out_c_ * cols));
    gemm_gather_cols(out_c_, cols, geo_.in_c, 1.0f, weight_.value.data(),
                     colptr_scratch_.data(), ipix, 0.0f, ocat);
    const int64_t row_grain = (kElemGrain + cols - 1) / cols;
    parallel_for(
        0, out_c_,
        [&](int64_t c0, int64_t c1) {
          for (int64_t c = c0; c < c1; ++c) {
            const float b = has_bias_ ? bias_.value[c] : 0.0f;
            for (int64_t n = 0; n < batch; ++n) {
              const float* src = ocat + c * cols + n * opix;
              float* dst = out.data() + (n * out_c_ + c) * opix;
              if (has_bias_) {
                for (int64_t i = 0; i < opix; ++i) dst[i] = src[i] + b;
              } else {
                std::memcpy(dst, src,
                            static_cast<size_t>(opix) * sizeof(float));
              }
            }
          }
        },
        row_grain);
    return out;
  }
  // General path: per-sample im2col reads the gathered plane in place.
  const auto body = [&](int64_t n0, int64_t n1) {
    ws::ArenaScope scratch;
    float* col =
        scratch.floats(static_cast<size_t>(geo_.col_rows() * geo_.col_cols()));
    for (int64_t n = n0; n < n1; ++n) {
      im2col(gb.rows[n], geo_, col);
      gemm(out_c_, geo_.col_cols(), geo_.col_rows(), 1.0f,
           weight_.value.data(), col, 0.0f, out.data() + n * out_c_ * opix);
      if (has_bias_) add_bias(n);
    }
  };
  if (batch == 1) {
    body(0, 1);
  } else {
    parallel_for(0, batch, body);
  }
  return out;
}

const float* Conv2d::cached_sample(int64_t n) const {
  return cached_gather_
             ? cached_rows_[static_cast<size_t>(n)]
             : cached_input_.data() + n * geo_.in_c * geo_.in_h * geo_.in_w;
}

int64_t Conv2d::cached_batch() const {
  return cached_gather_ ? static_cast<int64_t>(cached_rows_.size())
                        : cached_input_.dim(0);
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  CHAM_CHECK(!cached_input_.empty() || cached_gather_,
             "backward without train-mode forward");
  const int64_t batch = cached_batch();
  const int64_t oh = geo_.out_h(), ow = geo_.out_w();
  const int64_t opix = oh * ow;
  CHAM_CHECK(grad_out.rank() == 4 && grad_out.dim(1) == out_c_,
             "Conv2d grad " + grad_out.shape().to_string());

  Tensor grad_in;
  if (needs_input_grad_) {
    grad_in = Tensor({batch, geo_.in_c, geo_.in_h, geo_.in_w});
  }
  const int64_t ipix = geo_.in_h * geo_.in_w;
  const auto add_bias_grad = [&](const float* go) {
    for (int64_t c = 0; c < out_c_; ++c) {
      double acc = 0;
      for (int64_t i = 0; i < opix; ++i) acc += go[c * opix + i];
      bias_.grad[c] += static_cast<float>(acc);
    }
  };
  // The batch loop stays serial: dW accumulates across samples and its
  // per-element summation order must not depend on the thread count. The
  // parallelism lives inside the gemms (and col2im), which split rows.
  if (is_pointwise(geo_)) {
    // The column matrix is the input plane, so dW and dX come straight
    // from the operands: no im2col, no gcol, no col2im scatter. The batch
    // is merged into single gemms along the contraction (dW) and column
    // (dX) dimensions: the merged k axis of dW runs n-major/pixel-minor,
    // which is exactly the order the per-sample accumulation chained
    // through the C slot, so gradients are bit-identical to the sample
    // loop (and to the im2col path). Eliding the input gradient drops the
    // dX gemm and its scatter without touching the dW accumulation.
    const int64_t cols = batch * opix;
    if (batch == 1) {
      const float* go = grad_out.data();
      gemm_a_bt(out_c_, geo_.in_c, opix, 1.0f, go, cached_sample(0), 1.0f,
                weight_.grad.data());
      if (needs_input_grad_) {
        gemm_at_b(geo_.in_c, opix, out_c_, 1.0f, weight_.value.data(), go,
                  0.0f, grad_in.data());
      }
      if (has_bias_) add_bias_grad(go);
      return grad_in;
    }
    ws::ArenaScope scratch;
    float* gocat = scratch.floats(static_cast<size_t>(out_c_ * cols));
    float* xcat = scratch.floats(static_cast<size_t>(geo_.in_c * cols));
    const int64_t row_grain = (kElemGrain + cols - 1) / cols;
    parallel_for(
        0, out_c_,
        [&](int64_t c0, int64_t c1) {
          for (int64_t c = c0; c < c1; ++c) {
            for (int64_t n = 0; n < batch; ++n) {
              std::memcpy(gocat + c * cols + n * opix,
                          grad_out.data() + (n * out_c_ + c) * opix,
                          static_cast<size_t>(opix) * sizeof(float));
            }
          }
        },
        row_grain);
    parallel_for(
        0, geo_.in_c,
        [&](int64_t c0, int64_t c1) {
          for (int64_t c = c0; c < c1; ++c) {
            for (int64_t n = 0; n < batch; ++n) {
              std::memcpy(xcat + c * cols + n * opix,
                          cached_sample(n) + c * ipix,
                          static_cast<size_t>(opix) * sizeof(float));
            }
          }
        },
        row_grain);
    // dW += dYcat @ Xcat^T  (out_c x cols) @ (cols x in_c)
    gemm_a_bt(out_c_, geo_.in_c, cols, 1.0f, gocat, xcat, 1.0f,
              weight_.grad.data());
    if (needs_input_grad_) {
      float* gicat = scratch.floats(static_cast<size_t>(geo_.in_c * cols));
      // dXcat = W^T @ dYcat  (in_c x out_c) @ (out_c x cols)
      gemm_at_b(geo_.in_c, cols, out_c_, 1.0f, weight_.value.data(), gocat,
                0.0f, gicat);
      parallel_for(
          0, geo_.in_c,
          [&](int64_t c0, int64_t c1) {
            for (int64_t c = c0; c < c1; ++c) {
              for (int64_t n = 0; n < batch; ++n) {
                std::memcpy(grad_in.data() + (n * geo_.in_c + c) * ipix,
                            gicat + c * cols + n * opix,
                            static_cast<size_t>(opix) * sizeof(float));
              }
            }
          },
          row_grain);
    }
    // Bias gradient keeps the serial per-sample order (double accumulator
    // per channel, sample-major) so its bits match the previous loop.
    if (has_bias_) {
      for (int64_t n = 0; n < batch; ++n) {
        add_bias_grad(grad_out.data() + n * out_c_ * opix);
      }
    }
    return grad_in;
  }
  ws::ArenaScope scratch;
  const size_t col_elems =
      static_cast<size_t>(geo_.col_rows() * geo_.col_cols());
  float* col = scratch.floats(col_elems);
  float* gcol = needs_input_grad_ ? scratch.floats(col_elems) : nullptr;
  for (int64_t n = 0; n < batch; ++n) {
    const float* go = grad_out.data() + n * out_c_ * opix;
    // dW += dY @ col^T  (out_c x opix) @ (opix x col_rows)
    im2col(cached_sample(n), geo_, col);
    gemm_a_bt(out_c_, geo_.col_rows(), opix, 1.0f, go, col, 1.0f,
              weight_.grad.data());
    if (needs_input_grad_) {
      // dcol = W^T @ dY  (col_rows x out_c) @ (out_c x opix)
      gemm_at_b(geo_.col_rows(), opix, out_c_, 1.0f, weight_.value.data(), go,
                0.0f, gcol);
      col2im(gcol, geo_, grad_in.data() + n * geo_.in_c * ipix);
    }
    if (has_bias_) add_bias_grad(go);
  }
  return grad_in;
}

std::vector<Param*> Conv2d::params() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

// ------------------------------------------------------- DepthwiseConv2d

DepthwiseConv2d::DepthwiseConv2d(int64_t channels, int64_t in_h, int64_t in_w,
                                 int64_t kernel, int64_t stride, int64_t pad,
                                 Rng& rng, bool init)
    : geo_{channels, in_h, in_w, kernel, stride, pad},
      weight_(Shape{{channels, kernel * kernel}}) {
  if (init) he_init(weight_.value, kernel * kernel, rng);
}

int64_t DepthwiseConv2d::macs_per_sample() const {
  return geo_.in_c * geo_.kernel * geo_.kernel * geo_.col_cols();
}

Tensor DepthwiseConv2d::forward(const Tensor& x, bool train) {
  CHAM_CHECK(x.rank() == 4 && x.dim(1) == geo_.in_c,
             "DepthwiseConv2d input " + x.shape().to_string());
  if (train) {
    cached_input_ = x;
    cached_gather_ = false;
  }
  const int64_t batch = x.dim(0);
  const int64_t oh = geo_.out_h(), ow = geo_.out_w();
  Tensor out({batch, geo_.in_c, oh, ow});
  const int64_t k = geo_.kernel;
  const int64_t ipix = geo_.in_h * geo_.in_w;
  // Every (sample, channel) plane is independent: parallel over the
  // flattened plane index.
  parallel_for(0, batch * geo_.in_c, [&](int64_t p0, int64_t p1) {
    for (int64_t pi = p0; pi < p1; ++pi) {
      const int64_t c = pi % geo_.in_c;
      const float* plane = x.data() + pi * ipix;
      const float* w = weight_.value.data() + c * k * k;
      float* o = out.data() + pi * oh * ow;
      for (int64_t y = 0; y < oh; ++y) {
        for (int64_t xo = 0; xo < ow; ++xo) {
          double acc = 0;
          for (int64_t kh = 0; kh < k; ++kh) {
            const int64_t iy = y * geo_.stride + kh - geo_.pad;
            if (iy < 0 || iy >= geo_.in_h) continue;
            for (int64_t kw = 0; kw < k; ++kw) {
              const int64_t ix = xo * geo_.stride + kw - geo_.pad;
              if (ix < 0 || ix >= geo_.in_w) continue;
              acc += double(plane[iy * geo_.in_w + ix]) *
                     double(w[kh * k + kw]);
            }
          }
          o[y * ow + xo] = static_cast<float>(acc);
        }
      }
    }
  });
  return out;
}

Tensor DepthwiseConv2d::forward_gather(const GatherBatch& gb, bool train) {
  const int64_t ipix = geo_.in_h * geo_.in_w;
  CHAM_CHECK(gb.sample_numel() == geo_.in_c * ipix,
             "DepthwiseConv2d gathered sample " + gb.sample_shape.to_string());
  if (train) {
    cached_rows_.assign(gb.rows, gb.rows + gb.n);
    cached_gather_ = true;
    cached_input_ = Tensor();
  }
  const int64_t batch = gb.n;
  const int64_t oh = geo_.out_h(), ow = geo_.out_w();
  Tensor out({batch, geo_.in_c, oh, ow});
  const int64_t k = geo_.kernel;
  // Identical arithmetic to forward(); the plane base is gathered per
  // sample instead of read from one contiguous batch.
  parallel_for(0, batch * geo_.in_c, [&](int64_t p0, int64_t p1) {
    for (int64_t pi = p0; pi < p1; ++pi) {
      const int64_t n = pi / geo_.in_c;
      const int64_t c = pi % geo_.in_c;
      const float* plane = gb.rows[n] + c * ipix;
      const float* w = weight_.value.data() + c * k * k;
      float* o = out.data() + pi * oh * ow;
      for (int64_t y = 0; y < oh; ++y) {
        for (int64_t xo = 0; xo < ow; ++xo) {
          double acc = 0;
          for (int64_t kh = 0; kh < k; ++kh) {
            const int64_t iy = y * geo_.stride + kh - geo_.pad;
            if (iy < 0 || iy >= geo_.in_h) continue;
            for (int64_t kw = 0; kw < k; ++kw) {
              const int64_t ix = xo * geo_.stride + kw - geo_.pad;
              if (ix < 0 || ix >= geo_.in_w) continue;
              acc += double(plane[iy * geo_.in_w + ix]) *
                     double(w[kh * k + kw]);
            }
          }
          o[y * ow + xo] = static_cast<float>(acc);
        }
      }
    }
  });
  return out;
}

const float* DepthwiseConv2d::cached_sample(int64_t n) const {
  return cached_gather_
             ? cached_rows_[static_cast<size_t>(n)]
             : cached_input_.data() + n * geo_.in_c * geo_.in_h * geo_.in_w;
}

int64_t DepthwiseConv2d::cached_batch() const {
  return cached_gather_ ? static_cast<int64_t>(cached_rows_.size())
                        : cached_input_.dim(0);
}

Tensor DepthwiseConv2d::backward(const Tensor& grad_out) {
  CHAM_CHECK(!cached_input_.empty() || cached_gather_,
             "backward without train-mode forward");
  const int64_t batch = cached_batch();
  const int64_t oh = geo_.out_h(), ow = geo_.out_w();
  const int64_t k = geo_.kernel;
  const int64_t ipix = geo_.in_h * geo_.in_w;
  Tensor grad_in;
  if (needs_input_grad_) {
    grad_in = Tensor({batch, geo_.in_c, geo_.in_h, geo_.in_w});
  }
  // Channel-outer so each chunk owns its channels' weight grads outright;
  // the batch loop runs inside, preserving the per-element accumulation
  // order of the serial kernel (n ascending, then y, x). Elision drops the
  // gi accumulation lines only; the gw chain is untouched.
  parallel_for(0, geo_.in_c, [&](int64_t c0, int64_t c1) {
    for (int64_t c = c0; c < c1; ++c) {
      const float* w = weight_.value.data() + c * k * k;
      float* gw = weight_.grad.data() + c * k * k;
      for (int64_t n = 0; n < batch; ++n) {
        const float* plane = cached_sample(n) + c * ipix;
        const float* go = grad_out.data() + (n * geo_.in_c + c) * oh * ow;
        float* gi = needs_input_grad_
                        ? grad_in.data() + (n * geo_.in_c + c) * ipix
                        : nullptr;
        for (int64_t y = 0; y < oh; ++y) {
          for (int64_t xo = 0; xo < ow; ++xo) {
            const float g = go[y * ow + xo];
            if (g == 0.0f) continue;
            for (int64_t kh = 0; kh < k; ++kh) {
              const int64_t iy = y * geo_.stride + kh - geo_.pad;
              if (iy < 0 || iy >= geo_.in_h) continue;
              for (int64_t kw = 0; kw < k; ++kw) {
                const int64_t ix = xo * geo_.stride + kw - geo_.pad;
                if (ix < 0 || ix >= geo_.in_w) continue;
                gw[kh * k + kw] += g * plane[iy * geo_.in_w + ix];
                if (gi) gi[iy * geo_.in_w + ix] += g * w[kh * k + kw];
              }
            }
          }
        }
      }
    }
  });
  return grad_in;
}

// ----------------------------------------------------------- BatchNorm2d

BatchNorm2d::BatchNorm2d(int64_t channels, float momentum, float eps)
    : channels_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_(Shape{{channels}}),
      beta_(Shape{{channels}}),
      running_mean_({channels}),
      running_var_({channels}) {
  gamma_.value.fill(1.0f);
  running_var_.fill(1.0f);
}

Tensor BatchNorm2d::forward(const Tensor& x, bool train) {
  CHAM_CHECK(x.rank() == 4 && x.dim(1) == channels_,
             "BatchNorm2d input " + x.shape().to_string());
  const int64_t batch = x.dim(0), hw = x.dim(2) * x.dim(3);
  const int64_t count = batch * hw;
  // Eval forward writes no member: threads share the frozen backbone.
  const bool batch_stats = train && track_stats_ && count > 1;
  if (train) cached_train_mode_ = batch_stats;

  Tensor mean({channels_}), var({channels_});
  if (batch_stats) {
    // Channels are independent; each chunk owns its channels' stats and
    // running-average slots.
    parallel_for(0, channels_, [&](int64_t c0, int64_t c1) {
      for (int64_t c = c0; c < c1; ++c) {
        double m = 0;
        for (int64_t n = 0; n < batch; ++n) {
          const float* p = x.data() + (n * channels_ + c) * hw;
          for (int64_t i = 0; i < hw; ++i) m += p[i];
        }
        m /= count;
        double v = 0;
        for (int64_t n = 0; n < batch; ++n) {
          const float* p = x.data() + (n * channels_ + c) * hw;
          for (int64_t i = 0; i < hw; ++i) {
            const double d = p[i] - m;
            v += d * d;
          }
        }
        v /= count;
        mean[c] = static_cast<float>(m);
        var[c] = static_cast<float>(v);
        running_mean_[c] =
            (1 - momentum_) * running_mean_[c] + momentum_ * mean[c];
        running_var_[c] =
            (1 - momentum_) * running_var_[c] + momentum_ * var[c];
      }
    });
  } else {
    mean = running_mean_;
    var = running_var_;
  }

  Tensor out(x.shape());
  if (train) {
    cached_inv_std_ = Tensor({channels_});
    cached_xhat_ = Tensor(x.shape());
  }
  parallel_for(0, channels_, [&](int64_t c0, int64_t c1) {
    for (int64_t c = c0; c < c1; ++c) {
      const float inv_std = 1.0f / std::sqrt(var[c] + eps_);
      if (train) cached_inv_std_[c] = inv_std;
      const float g = gamma_.value[c], b = beta_.value[c], mu = mean[c];
      for (int64_t n = 0; n < batch; ++n) {
        const float* p = x.data() + (n * channels_ + c) * hw;
        float* o = out.data() + (n * channels_ + c) * hw;
        float* xh = train ? cached_xhat_.data() + (n * channels_ + c) * hw
                          : nullptr;
        for (int64_t i = 0; i < hw; ++i) {
          const float xhat = (p[i] - mu) * inv_std;
          if (xh) xh[i] = xhat;
          o[i] = g * xhat + b;
        }
      }
    }
  });
  return out;
}

Tensor BatchNorm2d::backward(const Tensor& grad_out) {
  CHAM_CHECK(!cached_xhat_.empty(), "backward without train-mode forward");
  const int64_t batch = grad_out.dim(0), hw = grad_out.dim(2) * grad_out.dim(3);
  const int64_t count = batch * hw;
  Tensor grad_in(grad_out.shape());

  parallel_for(0, channels_, [&](int64_t cb, int64_t ce) {
  for (int64_t c = cb; c < ce; ++c) {
    double sum_g = 0, sum_gx = 0;
    for (int64_t n = 0; n < batch; ++n) {
      const float* go = grad_out.data() + (n * channels_ + c) * hw;
      const float* xh = cached_xhat_.data() + (n * channels_ + c) * hw;
      for (int64_t i = 0; i < hw; ++i) {
        sum_g += go[i];
        sum_gx += double(go[i]) * double(xh[i]);
      }
    }
    gamma_.grad[c] += static_cast<float>(sum_gx);
    beta_.grad[c] += static_cast<float>(sum_g);

    const float g = gamma_.value[c];
    const float inv_std = cached_inv_std_[c];
    if (cached_train_mode_) {
      // Full batch-stat backward.
      const float mean_g = static_cast<float>(sum_g / count);
      const float mean_gx = static_cast<float>(sum_gx / count);
      for (int64_t n = 0; n < batch; ++n) {
        const float* go = grad_out.data() + (n * channels_ + c) * hw;
        const float* xh = cached_xhat_.data() + (n * channels_ + c) * hw;
        float* gi = grad_in.data() + (n * channels_ + c) * hw;
        for (int64_t i = 0; i < hw; ++i) {
          gi[i] = g * inv_std * (go[i] - mean_g - xh[i] * mean_gx);
        }
      }
    } else {
      // Eval-mode normalisation is an affine map: exact gradient.
      const float scale = g * inv_std;
      for (int64_t n = 0; n < batch; ++n) {
        const float* go = grad_out.data() + (n * channels_ + c) * hw;
        float* gi = grad_in.data() + (n * channels_ + c) * hw;
        for (int64_t i = 0; i < hw; ++i) gi[i] = scale * go[i];
      }
    }
  }
  });
  return grad_in;
}

// ------------------------------------------------------------------ ReLU

Tensor ReLU::forward(const Tensor& x, bool train) {
  Tensor out = x;
  if (train) mask_.resize(static_cast<size_t>(x.numel()));
  uint8_t* mask = train ? mask_.data() : nullptr;
  parallel_for(
      0, out.numel(),
      [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
          const float xi = out[i];
          float v = xi > 0.0f ? xi : 0.0f;
          if (clip_ > 0.0f && v > clip_) v = clip_;
          out[i] = v;
          if (mask) {
            mask[i] = xi > 0.0f && (clip_ <= 0.0f || xi < clip_);
          }
        }
      },
      kElemGrain);
  return out;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  CHAM_CHECK(!mask_.empty() || grad_out.numel() == 0,
             "backward without train-mode forward");
  CHAM_CHECK(static_cast<int64_t>(mask_.size()) == grad_out.numel(),
             "ReLU grad " + grad_out.shape().to_string() +
                 " does not match forward activation count " +
                 std::to_string(mask_.size()));
  Tensor grad_in = grad_out;
  parallel_for(
      0, grad_in.numel(),
      [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
          if (!mask_[static_cast<size_t>(i)]) grad_in[i] = 0.0f;
        }
      },
      kElemGrain);
  return grad_in;
}

// -------------------------------------------------------- GlobalAvgPool

Tensor GlobalAvgPool::forward(const Tensor& x, bool train) {
  CHAM_CHECK(x.rank() == 4, "GlobalAvgPool input " + x.shape().to_string());
  if (train) cached_in_shape_ = x.shape();
  const int64_t batch = x.dim(0), ch = x.dim(1), hw = x.dim(2) * x.dim(3);
  Tensor out({batch, ch});
  parallel_for(
      0, batch * ch,
      [&](int64_t p0, int64_t p1) {
        for (int64_t pi = p0; pi < p1; ++pi) {
          const float* p = x.data() + pi * hw;
          double acc = 0;
          for (int64_t i = 0; i < hw; ++i) acc += p[i];
          out[pi] = static_cast<float>(acc / hw);
        }
      },
      /*grain=*/8);
  return out;
}

Tensor GlobalAvgPool::forward_gather(const GatherBatch& gb, bool train) {
  CHAM_CHECK(gb.sample_shape.rank() == 3,
             "GlobalAvgPool gathered sample " + gb.sample_shape.to_string());
  const int64_t ch = gb.sample_shape[0];
  const int64_t hw = gb.sample_shape[1] * gb.sample_shape[2];
  if (train) {
    cached_in_shape_ =
        Shape{gb.n, ch, gb.sample_shape[1], gb.sample_shape[2]};
  }
  Tensor out({gb.n, ch});
  parallel_for(
      0, gb.n * ch,
      [&](int64_t p0, int64_t p1) {
        for (int64_t pi = p0; pi < p1; ++pi) {
          const float* p = gb.rows[pi / ch] + (pi % ch) * hw;
          double acc = 0;
          for (int64_t i = 0; i < hw; ++i) acc += p[i];
          out[pi] = static_cast<float>(acc / hw);
        }
      },
      /*grain=*/8);
  return out;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  CHAM_CHECK(cached_in_shape_.rank() == 4,
             "backward without train-mode forward");
  const int64_t batch = cached_in_shape_[0], ch = cached_in_shape_[1],
                hw = cached_in_shape_[2] * cached_in_shape_[3];
  Tensor grad_in(cached_in_shape_);
  const float inv = 1.0f / static_cast<float>(hw);
  for (int64_t n = 0; n < batch; ++n) {
    for (int64_t c = 0; c < ch; ++c) {
      const float g = grad_out.at(n, c) * inv;
      float* p = grad_in.data() + (n * ch + c) * hw;
      for (int64_t i = 0; i < hw; ++i) p[i] = g;
    }
  }
  return grad_in;
}

// ---------------------------------------------------------------- Linear

Linear::Linear(int64_t in_dim, int64_t out_dim, Rng& rng, bool init)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      weight_(Shape{{out_dim, in_dim}}),
      bias_(Shape{{out_dim}}) {
  if (init) he_init(weight_.value, in_dim, rng);
}

Tensor Linear::forward(const Tensor& x, bool train) {
  CHAM_CHECK(x.rank() == 2 && x.dim(1) == in_dim_,
             "Linear input " + x.shape().to_string() + ", expected cols " +
                 std::to_string(in_dim_));
  if (train) {
    cached_input_ = x;
    cached_gather_ = false;
  }
  const int64_t batch = x.dim(0);
  Tensor out({batch, out_dim_});
  // out = x @ W^T + b
  gemm_a_bt(batch, out_dim_, in_dim_, 1.0f, x.data(), weight_.value.data(),
            0.0f, out.data());
  for (int64_t n = 0; n < batch; ++n) {
    float* o = out.data() + n * out_dim_;
    for (int64_t j = 0; j < out_dim_; ++j) o[j] += bias_.value[j];
  }
  return out;
}

Tensor Linear::forward_gather(const GatherBatch& gb, bool train) {
  CHAM_CHECK(gb.sample_numel() == in_dim_,
             "Linear gathered sample " + gb.sample_shape.to_string() +
                 ", expected " + std::to_string(in_dim_) + " elements");
  if (train) {
    cached_rows_.assign(gb.rows, gb.rows + gb.n);
    cached_gather_ = true;
    cached_input_ = Tensor();
  }
  Tensor out({gb.n, out_dim_});
  // Same GEMM as forward(); row i of the A operand is gathered in place.
  gemm_gather_a_bt(gb.n, out_dim_, in_dim_, 1.0f, gb.rows,
                   weight_.value.data(), 0.0f, out.data());
  for (int64_t n = 0; n < gb.n; ++n) {
    float* o = out.data() + n * out_dim_;
    for (int64_t j = 0; j < out_dim_; ++j) o[j] += bias_.value[j];
  }
  return out;
}

Tensor Linear::backward(const Tensor& grad_out) {
  CHAM_CHECK(!cached_input_.empty() || cached_gather_,
             "backward without train-mode forward");
  const int64_t batch = cached_gather_
                            ? static_cast<int64_t>(cached_rows_.size())
                            : cached_input_.dim(0);
  // dW += dY^T @ X  (out x batch) @ (batch x in)
  if (cached_gather_) {
    gemm_at_b_gather_b(out_dim_, in_dim_, batch, 1.0f, grad_out.data(),
                       cached_rows_.data(), 1.0f, weight_.grad.data());
  } else {
    gemm_at_b(out_dim_, in_dim_, batch, 1.0f, grad_out.data(),
              cached_input_.data(), 1.0f, weight_.grad.data());
  }
  for (int64_t n = 0; n < batch; ++n) {
    const float* go = grad_out.data() + n * out_dim_;
    for (int64_t j = 0; j < out_dim_; ++j) bias_.grad[j] += go[j];
  }
  if (!needs_input_grad_) return Tensor();
  // dX = dY @ W
  Tensor grad_in({batch, in_dim_});
  gemm(batch, in_dim_, out_dim_, 1.0f, grad_out.data(), weight_.value.data(),
       0.0f, grad_in.data());
  return grad_in;
}

}  // namespace cham::nn
