// Layer abstraction: explicit forward/backward with cached activations.
//
// The framework is deliberately graph-free: MobileNetV1 is a straight
// pipeline, so a Sequential of Layers with manual backward is simpler and
// faster than tape-based autograd, and makes per-layer MAC/byte accounting
// (needed by the hardware cost models) exact.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace cham::nn {

// A trainable parameter: value plus accumulated gradient.
struct Param {
  Tensor value;
  Tensor grad;

  explicit Param(Shape shape) : value(shape), grad(shape) {}
  void zero_grad() { grad.fill(0.0f); }
  int64_t numel() const { return value.numel(); }
};

// A batch whose samples are gathered through per-sample base pointers
// instead of living in one contiguous tensor: sample i is the
// sample_shape.numel() contiguous floats at rows[i]. This is the zero-copy
// replay interface — rows point straight into ST slab slots, LT entries,
// and incoming latent-cache storage; nothing is stacked.
//
// Ownership: the caller owns both the pointer array and the gathered
// storage, and must keep every row valid until the consuming call returns —
// and, for a train-mode forward, until the matching backward() completes
// (layers cache the row pointers, not a copy of the data).
struct GatherBatch {
  const float* const* rows = nullptr;
  int64_t n = 0;
  Shape sample_shape;  // per-sample shape, e.g. (C,H,W) or (D)

  int64_t sample_numel() const { return sample_shape.numel(); }
};

class Layer {
 public:
  virtual ~Layer() = default;

  // x is NCHW (rank 4) or NxD (rank 2) depending on the layer.
  // `train` selects batch-statistics / caching behaviour. An eval forward
  // writes no member, so threads may share a frozen network (not so an
  // eval forward_gather, which reuses layer scratch).
  virtual Tensor forward(const Tensor& x, bool train) = 0;

  // grad_out has the shape of the last forward output; returns gradient with
  // respect to the last forward input and accumulates parameter grads.
  // When needs_input_grad() is false the input-gradient computation is
  // skipped and an empty Tensor is returned (parameter grads are still
  // accumulated, in the same order — bit-identical to the unelided pass).
  virtual Tensor backward(const Tensor& grad_out) = 0;

  // Forward over a gathered batch. The default materialises the batch into
  // a contiguous tensor and calls forward() — layers with a zero-copy path
  // (convolutions, linear) override it to pack GEMM panels directly from
  // the gathered rows. Both paths are bit-identical by construction.
  virtual Tensor forward_gather(const GatherBatch& gb, bool train) {
    std::vector<int64_t> dims;
    dims.reserve(static_cast<size_t>(gb.sample_shape.rank()) + 1);
    dims.push_back(gb.n);
    for (int64_t d : gb.sample_shape.dims()) dims.push_back(d);
    Tensor x{Shape(dims)};
    const int64_t numel = gb.sample_numel();
    for (int64_t i = 0; i < gb.n; ++i) {
      std::memcpy(x.data() + i * numel, gb.rows[i],
                  static_cast<size_t>(numel) * sizeof(float));
    }
    return forward(x, train);
  }

  virtual std::vector<Param*> params() { return {}; }
  virtual std::string name() const = 0;

  // Multiply-accumulate operations per sample (forward pass); 0 for
  // activations/reshapes. Known statically because geometry is fixed at
  // construction time.
  virtual int64_t macs_per_sample() const { return 0; }

  // MACs per sample of the backward pass under the current
  // needs_input_grad setting: dW plus dInput each mirror the forward
  // contraction, so a MAC-bearing layer costs 2x forward — 1x once the
  // input gradient is elided. This is the exact model charge_g bills
  // against the OpStats ledger.
  virtual int64_t backward_macs_per_sample() const {
    return macs_per_sample() * (needs_input_grad_ ? 2 : 1);
  }

  // First-layer dInput elision: when the layer's input is frozen (backbone
  // latents in the replay path), its input gradient is dead compute.
  // Containers forward the setting to their first layer.
  virtual void set_needs_input_grad(bool v) { needs_input_grad_ = v; }
  bool needs_input_grad() const { return needs_input_grad_; }

  // Number of scalar parameters.
  int64_t param_count() {
    int64_t n = 0;
    for (Param* p : params()) n += p->numel();
    return n;
  }

  // True for layers that count toward MobileNetV1's "27 conv layers"
  // numbering used by the paper's latent-layer index.
  virtual bool is_conv_like() const { return false; }

 protected:
  bool needs_input_grad_ = true;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace cham::nn
