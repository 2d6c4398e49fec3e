// Reduced-precision numerics for replay storage and accelerator emulation.
//
// The paper's accelerators do not compute in fp32: the ZCU102 design uses
// 16-bit floating point and the EdgeTPU study uses Block Floating Point
// (BFP). This module provides bit-exact software emulation of those formats
// plus int8 affine quantisation, so that
//   * replay buffers can store latents at 2x-4x density (the same number of
//     samples in half/quarter the SRAM — or 2x-4x the samples in the same
//     budget), and
//   * the numerical effect of low-precision storage on continual-learning
//     accuracy can be measured (bench_ablation_precision).
//
// All conversions are value-semantic and deterministic (round-to-nearest-
// even for fp16, shared-exponent truncation for BFP, nearest for int8).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.h"

namespace cham::quant {

// ------------------------------------------------------------------ fp16

// IEEE 754 binary16 conversion (round-to-nearest-even, with denormal and
// infinity handling). Bit-exact with hardware half-precision casts.
uint16_t fp32_to_fp16_bits(float value);
float fp16_bits_to_fp32(uint16_t bits);

// Round-trips a value through fp16 (the storage error of a half buffer).
inline float fp16_round_trip(float value) {
  return fp16_bits_to_fp32(fp32_to_fp16_bits(value));
}

// ------------------------------------------------------------------ int8

// Affine (asymmetric) int8 quantisation parameters for a data block.
struct Int8Params {
  float scale = 1.0f;
  int32_t zero_point = 0;
};

// Chooses scale/zero-point covering [min, max] of the span (never empty).
Int8Params choose_int8_params(std::span<const float> values);

int8_t quantize_int8(float value, const Int8Params& p);
float dequantize_int8(int8_t q, const Int8Params& p);

// ------------------------------------------------------------------- BFP

// Block Floating Point: a block of mantissas sharing one exponent — the
// datatype of the uSystolic EdgeTPU study the paper uses. `mantissa_bits`
// includes the sign (e.g. 8 -> int8 mantissas).
struct BfpBlock {
  int8_t shared_exponent = 0;        // power-of-two scale
  std::vector<int8_t> mantissas;     // two's-complement
};

BfpBlock bfp_encode(std::span<const float> values, int mantissa_bits = 8);
void bfp_decode(const BfpBlock& block, int mantissa_bits,
                std::span<float> out);

// --------------------------------------------------------------- codecs

// Storage precision for a replay buffer.
enum class Precision : uint8_t {
  kFp32,
  kFp16,
  kBfp8,   // 8-bit mantissa, 16-element blocks
  kInt8,   // per-tensor affine
};

const char* precision_name(Precision p);

// Bytes needed to store `numel` floats at a precision (including per-block
// metadata for BFP and the affine params for int8).
int64_t storage_bytes(Precision p, int64_t numel);

// An encoded latent: opaque bytes plus the info needed to decode.
struct EncodedTensor {
  Precision precision = Precision::kFp32;
  Shape shape;
  std::vector<uint8_t> bytes;

  int64_t size_bytes() const {
    return static_cast<int64_t>(bytes.size());
  }
};

// Encodes/decodes a tensor at the given precision. Round-tripping through
// kFp32 is exact; the other formats introduce their characteristic
// quantisation error.
EncodedTensor encode(const Tensor& t, Precision p);
Tensor decode(const EncodedTensor& e);

// Max absolute round-trip error over a tensor (diagnostics / tests).
double round_trip_error(const Tensor& t, Precision p);

}  // namespace cham::quant
