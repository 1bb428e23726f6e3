#include "tensor/pool.h"

#include <limits>
#include <stdexcept>

#include "runtime/thread_pool.h"
#include "tensor/conv.h"

namespace bd {

namespace {
void check_pool_input(const Tensor& input) {
  if (input.dim() != 4) {
    throw std::invalid_argument("pool2d: input must be rank 4 (NCHW)");
  }
}
}  // namespace

MaxPoolResult maxpool2d_forward(const Tensor& input, const Pool2dSpec& spec) {
  check_pool_input(input);
  const std::int64_t n = input.size(0), c = input.size(1);
  const std::int64_t h = input.size(2), w = input.size(3);
  const std::int64_t oh = conv_out_size(h, spec.kernel, spec.stride, spec.padding);
  const std::int64_t ow = conv_out_size(w, spec.kernel, spec.stride, spec.padding);

  MaxPoolResult result;
  result.output = Tensor({n, c, oh, ow});
  result.argmax.assign(static_cast<std::size_t>(n * c * oh * ow), -1);

  const float* pin = input.data();
  float* pout = result.output.data();

  // (sample, channel) planes are independent — parallelize over them.
  runtime::parallel_for(
      0, n * c,
      runtime::grain_for_cost(oh * ow * spec.kernel * spec.kernel),
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t p = lo; p < hi; ++p) {
          const std::int64_t base = p * h * w;
          std::int64_t oi = p * oh * ow;
          for (std::int64_t oy = 0; oy < oh; ++oy) {
            for (std::int64_t ox = 0; ox < ow; ++ox, ++oi) {
              float best = -std::numeric_limits<float>::infinity();
              std::int64_t best_idx = -1;
              for (std::int64_t ky = 0; ky < spec.kernel; ++ky) {
                const std::int64_t iy = oy * spec.stride - spec.padding + ky;
                if (iy < 0 || iy >= h) continue;
                for (std::int64_t kx = 0; kx < spec.kernel; ++kx) {
                  const std::int64_t ix = ox * spec.stride - spec.padding + kx;
                  if (ix < 0 || ix >= w) continue;
                  const std::int64_t idx = base + iy * w + ix;
                  if (pin[idx] > best) {
                    best = pin[idx];
                    best_idx = idx;
                  }
                }
              }
              pout[oi] = (best_idx >= 0) ? best : 0.0f;
              result.argmax[static_cast<std::size_t>(oi)] = best_idx;
            }
          }
        }
      });
  return result;
}

Tensor maxpool2d_backward(const Shape& input_shape,
                          const std::vector<std::int64_t>& argmax,
                          const Tensor& grad_output) {
  Tensor grad_input(input_shape);
  float* gi = grad_input.data();
  const float* go = grad_output.data();
  // Argmax indices always point inside the plane that produced them, so
  // scattering per (sample, channel) plane never crosses chunk boundaries
  // even when pooling windows overlap.
  const std::int64_t plane = grad_output.size(2) * grad_output.size(3);
  const std::int64_t planes = grad_output.numel() / plane;
  runtime::parallel_for(0, planes, runtime::grain_for_cost(plane),
                        [&](std::int64_t lo, std::int64_t hi) {
                          for (std::int64_t p = lo; p < hi; ++p) {
                            for (std::int64_t i = p * plane;
                                 i < (p + 1) * plane; ++i) {
                              const std::int64_t idx =
                                  argmax[static_cast<std::size_t>(i)];
                              if (idx >= 0) gi[idx] += go[i];
                            }
                          }
                        });
  return grad_input;
}

Tensor avgpool2d_forward(const Tensor& input, const Pool2dSpec& spec) {
  check_pool_input(input);
  const std::int64_t n = input.size(0), c = input.size(1);
  const std::int64_t h = input.size(2), w = input.size(3);
  const std::int64_t oh = conv_out_size(h, spec.kernel, spec.stride, spec.padding);
  const std::int64_t ow = conv_out_size(w, spec.kernel, spec.stride, spec.padding);
  const float inv_area =
      1.0f / static_cast<float>(spec.kernel * spec.kernel);

  Tensor out({n, c, oh, ow});
  const float* pin = input.data();
  float* pout = out.data();

  runtime::parallel_for(
      0, n * c,
      runtime::grain_for_cost(oh * ow * spec.kernel * spec.kernel),
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t p = lo; p < hi; ++p) {
          const std::int64_t base = p * h * w;
          std::int64_t oi = p * oh * ow;
          for (std::int64_t oy = 0; oy < oh; ++oy) {
            for (std::int64_t ox = 0; ox < ow; ++ox, ++oi) {
              double acc = 0.0;
              for (std::int64_t ky = 0; ky < spec.kernel; ++ky) {
                const std::int64_t iy = oy * spec.stride - spec.padding + ky;
                if (iy < 0 || iy >= h) continue;
                for (std::int64_t kx = 0; kx < spec.kernel; ++kx) {
                  const std::int64_t ix = ox * spec.stride - spec.padding + kx;
                  if (ix < 0 || ix >= w) continue;
                  acc += pin[base + iy * w + ix];
                }
              }
              pout[oi] = static_cast<float>(acc) * inv_area;
            }
          }
        }
      });
  return out;
}

Tensor avgpool2d_backward(const Shape& input_shape, const Tensor& grad_output,
                          const Pool2dSpec& spec) {
  Tensor grad_input(input_shape);
  const std::int64_t n = input_shape[0], c = input_shape[1];
  const std::int64_t h = input_shape[2], w = input_shape[3];
  const std::int64_t oh = grad_output.size(2), ow = grad_output.size(3);
  const float inv_area =
      1.0f / static_cast<float>(spec.kernel * spec.kernel);

  float* gi = grad_input.data();
  const float* go = grad_output.data();

  // Scatter-accumulate stays inside each (sample, channel) plane, so
  // plane-level chunks never collide even with overlapping windows.
  runtime::parallel_for(
      0, n * c,
      runtime::grain_for_cost(oh * ow * spec.kernel * spec.kernel),
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t p = lo; p < hi; ++p) {
          const std::int64_t base = p * h * w;
          std::int64_t oi = p * oh * ow;
          for (std::int64_t oy = 0; oy < oh; ++oy) {
            for (std::int64_t ox = 0; ox < ow; ++ox, ++oi) {
              const float g = go[oi] * inv_area;
              for (std::int64_t ky = 0; ky < spec.kernel; ++ky) {
                const std::int64_t iy = oy * spec.stride - spec.padding + ky;
                if (iy < 0 || iy >= h) continue;
                for (std::int64_t kx = 0; kx < spec.kernel; ++kx) {
                  const std::int64_t ix = ox * spec.stride - spec.padding + kx;
                  if (ix < 0 || ix >= w) continue;
                  gi[base + iy * w + ix] += g;
                }
              }
            }
          }
        }
      });
  return grad_input;
}

Tensor global_avgpool_forward(const Tensor& input) {
  check_pool_input(input);
  const std::int64_t n = input.size(0), c = input.size(1);
  const std::int64_t hw = input.size(2) * input.size(3);
  Tensor out({n, c, 1, 1});
  const float* pin = input.data();
  float* pout = out.data();
  runtime::parallel_for(0, n * c, runtime::grain_for_cost(hw),
                        [&](std::int64_t lo, std::int64_t hi) {
                          for (std::int64_t i = lo; i < hi; ++i) {
                            double acc = 0.0;
                            const float* plane = pin + i * hw;
                            for (std::int64_t j = 0; j < hw; ++j) {
                              acc += plane[j];
                            }
                            pout[i] =
                                static_cast<float>(acc / static_cast<double>(hw));
                          }
                        });
  return out;
}

Tensor global_avgpool_backward(const Shape& input_shape,
                               const Tensor& grad_output) {
  Tensor grad_input(input_shape);
  const std::int64_t n = input_shape[0], c = input_shape[1];
  const std::int64_t hw = input_shape[2] * input_shape[3];
  const float inv = 1.0f / static_cast<float>(hw);
  float* gi = grad_input.data();
  const float* go = grad_output.data();
  runtime::parallel_for(0, n * c, runtime::grain_for_cost(hw),
                        [&](std::int64_t lo, std::int64_t hi) {
                          for (std::int64_t i = lo; i < hi; ++i) {
                            const float g = go[i] * inv;
                            float* plane = gi + i * hw;
                            for (std::int64_t j = 0; j < hw; ++j) plane[j] = g;
                          }
                        });
  return grad_input;
}

}  // namespace bd
