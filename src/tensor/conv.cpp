#include "tensor/conv.h"

#include <stdexcept>
#include <vector>

#include "runtime/thread_pool.h"
#include "tensor/ops.h"

namespace bd {

std::int64_t conv_out_size(std::int64_t in, std::int64_t kernel,
                           std::int64_t stride, std::int64_t padding) {
  const std::int64_t out = (in + 2 * padding - kernel) / stride + 1;
  if (out <= 0) {
    throw std::invalid_argument("conv: non-positive output size");
  }
  return out;
}

Tensor im2col(const Tensor& input, std::int64_t n, std::int64_t kh,
              std::int64_t kw, const Conv2dSpec& spec) {
  const std::int64_t c = input.size(1), h = input.size(2), w = input.size(3);
  const std::int64_t oh = conv_out_size(h, kh, spec.stride, spec.padding);
  const std::int64_t ow = conv_out_size(w, kw, spec.stride, spec.padding);

  Tensor cols({c * kh * kw, oh * ow});
  float* pc = cols.data();
  const float* pin = input.data() + n * c * h * w;

  std::int64_t row = 0;
  for (std::int64_t ch = 0; ch < c; ++ch) {
    const float* chan = pin + ch * h * w;
    for (std::int64_t ky = 0; ky < kh; ++ky) {
      for (std::int64_t kx = 0; kx < kw; ++kx, ++row) {
        float* out_row = pc + row * oh * ow;
        std::int64_t idx = 0;
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          const std::int64_t iy = oy * spec.stride - spec.padding + ky;
          if (iy < 0 || iy >= h) {
            for (std::int64_t ox = 0; ox < ow; ++ox) out_row[idx++] = 0.0f;
            continue;
          }
          const float* in_row = chan + iy * w;
          for (std::int64_t ox = 0; ox < ow; ++ox) {
            const std::int64_t ix = ox * spec.stride - spec.padding + kx;
            out_row[idx++] = (ix >= 0 && ix < w) ? in_row[ix] : 0.0f;
          }
        }
      }
    }
  }
  return cols;
}

void col2im_accumulate(const Tensor& cols, Tensor& grad_input, std::int64_t n,
                       std::int64_t kh, std::int64_t kw,
                       const Conv2dSpec& spec) {
  const std::int64_t c = grad_input.size(1);
  const std::int64_t h = grad_input.size(2), w = grad_input.size(3);
  const std::int64_t oh = conv_out_size(h, kh, spec.stride, spec.padding);
  const std::int64_t ow = conv_out_size(w, kw, spec.stride, spec.padding);

  const float* pc = cols.data();
  float* pout = grad_input.data() + n * c * h * w;

  std::int64_t row = 0;
  for (std::int64_t ch = 0; ch < c; ++ch) {
    float* chan = pout + ch * h * w;
    for (std::int64_t ky = 0; ky < kh; ++ky) {
      for (std::int64_t kx = 0; kx < kw; ++kx, ++row) {
        const float* in_row = pc + row * oh * ow;
        std::int64_t idx = 0;
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          const std::int64_t iy = oy * spec.stride - spec.padding + ky;
          if (iy < 0 || iy >= h) {
            idx += ow;
            continue;
          }
          float* out_row = chan + iy * w;
          for (std::int64_t ox = 0; ox < ow; ++ox, ++idx) {
            const std::int64_t ix = ox * spec.stride - spec.padding + kx;
            if (ix >= 0 && ix < w) out_row[ix] += in_row[idx];
          }
        }
      }
    }
  }
}

namespace {

void check_conv_args(const Tensor& input, const Tensor& weight,
                     const Tensor& bias, bool depthwise) {
  if (input.dim() != 4 || weight.dim() != 4) {
    throw std::invalid_argument("conv2d: input and weight must be rank 4");
  }
  if (depthwise) {
    if (weight.size(1) != 1 || weight.size(0) != input.size(1)) {
      throw std::invalid_argument(
          "depthwise conv2d: weight must be (C,1,KH,KW) matching input C");
    }
  } else if (input.size(1) != weight.size(1)) {
    throw std::invalid_argument("conv2d: input channels " +
                                std::to_string(input.size(1)) +
                                " != weight in-channels " +
                                std::to_string(weight.size(1)));
  }
  if (bias.defined() &&
      (bias.dim() != 1 || bias.size(0) != weight.size(0))) {
    throw std::invalid_argument("conv2d: bias must be rank 1 of size Cout");
  }
}

}  // namespace

Tensor conv2d_forward(const Tensor& input, const Tensor& weight,
                      const Tensor& bias, const Conv2dSpec& spec) {
  check_conv_args(input, weight, bias, /*depthwise=*/false);
  const std::int64_t n = input.size(0);
  const std::int64_t cout = weight.size(0), cin = weight.size(1);
  const std::int64_t kh = weight.size(2), kw = weight.size(3);
  const std::int64_t oh =
      conv_out_size(input.size(2), kh, spec.stride, spec.padding);
  const std::int64_t ow =
      conv_out_size(input.size(3), kw, spec.stride, spec.padding);

  const Tensor wmat = weight.reshape({cout, cin * kh * kw});
  Tensor out({n, cout, oh, ow});

  // Samples write disjoint output slices, so the batch dimension
  // parallelizes directly; the matmul inside runs serially (nested region).
  runtime::parallel_for(0, n, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      const Tensor cols = im2col(input, i, kh, kw, spec);
      const Tensor res = matmul(wmat, cols);  // (cout, oh*ow)
      float* po = out.data() + i * cout * oh * ow;
      std::copy(res.data(), res.data() + res.numel(), po);
      if (bias.defined()) {
        for (std::int64_t c = 0; c < cout; ++c) {
          const float b = bias[c];
          float* plane = po + c * oh * ow;
          for (std::int64_t j = 0; j < oh * ow; ++j) plane[j] += b;
        }
      }
    }
  });
  return out;
}

Conv2dGrads conv2d_backward(const Tensor& input, const Tensor& weight,
                            bool has_bias, const Tensor& grad_output,
                            const Conv2dSpec& spec) {
  const std::int64_t n = input.size(0);
  const std::int64_t cout = weight.size(0), cin = weight.size(1);
  const std::int64_t kh = weight.size(2), kw = weight.size(3);
  const std::int64_t oh = grad_output.size(2), ow = grad_output.size(3);

  const Tensor wmat = weight.reshape({cout, cin * kh * kw});
  const Tensor wmat_t = transpose2d(wmat);

  Conv2dGrads grads;
  grads.grad_input = Tensor(input.shape());
  Tensor grad_wmat({cout, cin * kh * kw});
  if (has_bias) grads.grad_bias = Tensor({cout});

  // grad_input slices are sample-disjoint, but grad_weight/grad_bias sum
  // across the batch. Each sample computes its contribution into a private
  // buffer; the reduction below runs serially in sample order, making the
  // result bitwise identical to the legacy serial loop for any thread count.
  std::vector<Tensor> gw_partial(static_cast<std::size_t>(n));
  std::vector<std::vector<float>> gb_partial(
      static_cast<std::size_t>(has_bias ? n : 0));

  runtime::parallel_for(0, n, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      // View of this sample's output gradient as (cout, oh*ow).
      Tensor go({cout, oh * ow});
      const float* pg = grad_output.data() + i * cout * oh * ow;
      std::copy(pg, pg + cout * oh * ow, go.data());

      const Tensor cols = im2col(input, i, kh, kw, spec);
      // dW_i = dOut * colsT
      const Tensor cols_t = transpose2d(cols);
      gw_partial[static_cast<std::size_t>(i)] = matmul(go, cols_t);
      // dX_cols = W^T * dOut ; fold back
      const Tensor dcols = matmul(wmat_t, go);
      col2im_accumulate(dcols, grads.grad_input, i, kh, kw, spec);

      if (has_bias) {
        std::vector<float> gb(static_cast<std::size_t>(cout));
        for (std::int64_t c = 0; c < cout; ++c) {
          const float* row = go.data() + c * oh * ow;
          double s = 0.0;
          for (std::int64_t j = 0; j < oh * ow; ++j) s += row[j];
          gb[static_cast<std::size_t>(c)] = static_cast<float>(s);
        }
        gb_partial[static_cast<std::size_t>(i)] = std::move(gb);
      }
    }
  });

  for (std::int64_t i = 0; i < n; ++i) {
    axpy_inplace(grad_wmat, 1.0f, gw_partial[static_cast<std::size_t>(i)]);
    if (has_bias) {
      const auto& gb = gb_partial[static_cast<std::size_t>(i)];
      for (std::int64_t c = 0; c < cout; ++c) {
        grads.grad_bias[c] += gb[static_cast<std::size_t>(c)];
      }
    }
  }
  grads.grad_weight = grad_wmat.reshape({cout, cin, kh, kw});
  return grads;
}

Tensor depthwise_conv2d_forward(const Tensor& input, const Tensor& weight,
                                const Tensor& bias, const Conv2dSpec& spec) {
  check_conv_args(input, weight, bias, /*depthwise=*/true);
  const std::int64_t n = input.size(0), c = input.size(1);
  const std::int64_t h = input.size(2), w = input.size(3);
  const std::int64_t kh = weight.size(2), kw = weight.size(3);
  const std::int64_t oh = conv_out_size(h, kh, spec.stride, spec.padding);
  const std::int64_t ow = conv_out_size(w, kw, spec.stride, spec.padding);

  Tensor out({n, c, oh, ow});
  // Every (sample, channel) plane is independent; parallelize over the
  // flattened plane index.
  runtime::parallel_for(
      0, n * c, runtime::grain_for_cost(oh * ow * kh * kw),
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t p = lo; p < hi; ++p) {
          const std::int64_t ch = p % c;
          const float* chan = input.data() + p * h * w;
          const float* ker = weight.data() + ch * kh * kw;
          const float b = bias.defined() ? bias[ch] : 0.0f;
          float* ochan = out.data() + p * oh * ow;
          for (std::int64_t oy = 0; oy < oh; ++oy) {
            for (std::int64_t ox = 0; ox < ow; ++ox) {
              float acc = b;
              for (std::int64_t ky = 0; ky < kh; ++ky) {
                const std::int64_t iy = oy * spec.stride - spec.padding + ky;
                if (iy < 0 || iy >= h) continue;
                for (std::int64_t kx = 0; kx < kw; ++kx) {
                  const std::int64_t ix = ox * spec.stride - spec.padding + kx;
                  if (ix < 0 || ix >= w) continue;
                  acc += chan[iy * w + ix] * ker[ky * kw + kx];
                }
              }
              ochan[oy * ow + ox] = acc;
            }
          }
        }
      });
  return out;
}

Conv2dGrads depthwise_conv2d_backward(const Tensor& input,
                                      const Tensor& weight, bool has_bias,
                                      const Tensor& grad_output,
                                      const Conv2dSpec& spec) {
  const std::int64_t n = input.size(0), c = input.size(1);
  const std::int64_t h = input.size(2), w = input.size(3);
  const std::int64_t kh = weight.size(2), kw = weight.size(3);
  const std::int64_t oh = grad_output.size(2), ow = grad_output.size(3);

  Conv2dGrads grads;
  grads.grad_input = Tensor(input.shape());
  grads.grad_weight = Tensor(weight.shape());
  if (has_bias) grads.grad_bias = Tensor({c});

  // Kernel and bias gradients accumulate across the batch per channel, so
  // parallelize over channels and keep the per-channel sample loop serial:
  // each grad element still sees its additions in the original i-ascending
  // order, and grad_input planes stay disjoint — bitwise identical to the
  // legacy serial loop for any thread count.
  runtime::parallel_for(
      0, c, runtime::grain_for_cost(n * oh * ow * kh * kw),
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t ch = lo; ch < hi; ++ch) {
          const float* ker = weight.data() + ch * kh * kw;
          float* gker = grads.grad_weight.data() + ch * kh * kw;
          for (std::int64_t i = 0; i < n; ++i) {
            const float* chan = input.data() + (i * c + ch) * h * w;
            const float* gchan = grad_output.data() + (i * c + ch) * oh * ow;
            float* gin = grads.grad_input.data() + (i * c + ch) * h * w;
            double gbias = 0.0;
            for (std::int64_t oy = 0; oy < oh; ++oy) {
              for (std::int64_t ox = 0; ox < ow; ++ox) {
                const float g = gchan[oy * ow + ox];
                gbias += g;
                for (std::int64_t ky = 0; ky < kh; ++ky) {
                  const std::int64_t iy = oy * spec.stride - spec.padding + ky;
                  if (iy < 0 || iy >= h) continue;
                  for (std::int64_t kx = 0; kx < kw; ++kx) {
                    const std::int64_t ix =
                        ox * spec.stride - spec.padding + kx;
                    if (ix < 0 || ix >= w) continue;
                    gin[iy * w + ix] += g * ker[ky * kw + kx];
                    gker[ky * kw + kx] += g * chan[iy * w + ix];
                  }
                }
              }
            }
            if (has_bias) grads.grad_bias[ch] += static_cast<float>(gbias);
          }
        }
      });
  return grads;
}

}  // namespace bd
