#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "runtime/thread_pool.h"

namespace bd {

namespace {

// Minimum per-chunk element count for parallel elementwise/broadcast loops.
// Chunks below this run serially inside parallel_for, so small tensors pay
// (almost) nothing. Depends only on this constant, never on thread count,
// keeping chunk boundaries — and therefore results — thread-count-invariant.
constexpr std::int64_t kElemwiseGrain = std::int64_t{1} << 15;

// Right-aligned shape padded to `rank` with leading 1s.
Shape pad_shape(const Shape& s, std::size_t rank) {
  Shape out(rank, 1);
  std::copy(s.begin(), s.end(), out.begin() + (rank - s.size()));
  return out;
}

// Row-major strides; broadcast dims (size 1 where out size > 1) get stride 0.
std::vector<std::int64_t> broadcast_strides(const Shape& padded,
                                            const Shape& out) {
  std::vector<std::int64_t> strides(padded.size(), 0);
  std::int64_t stride = 1;
  for (std::size_t i = padded.size(); i-- > 0;) {
    strides[i] = (padded[i] == 1 && out[i] != 1) ? 0 : stride;
    stride *= padded[i];
  }
  return strides;
}

}  // namespace

Shape broadcast_shape(const Shape& a, const Shape& b) {
  const std::size_t rank = std::max(a.size(), b.size());
  const Shape pa = pad_shape(a, rank);
  const Shape pb = pad_shape(b, rank);
  Shape out(rank);
  for (std::size_t i = 0; i < rank; ++i) {
    if (pa[i] == pb[i]) {
      out[i] = pa[i];
    } else if (pa[i] == 1) {
      out[i] = pb[i];
    } else if (pb[i] == 1) {
      out[i] = pa[i];
    } else {
      throw std::invalid_argument("broadcast_shape: incompatible shapes " +
                                  shape_string(a) + " and " + shape_string(b));
    }
  }
  return out;
}

bool broadcastable_to(const Shape& from, const Shape& to) {
  if (from.size() > to.size()) return false;
  const Shape pf = pad_shape(from, to.size());
  for (std::size_t i = 0; i < to.size(); ++i) {
    if (pf[i] != to[i] && pf[i] != 1) return false;
  }
  return true;
}

Tensor reduce_to_shape(const Tensor& t, const Shape& target) {
  if (t.shape() == target) return t;
  if (!broadcastable_to(target, t.shape())) {
    throw std::invalid_argument("reduce_to_shape: " + shape_string(target) +
                                " does not broadcast to " +
                                shape_string(t.shape()));
  }
  const std::size_t rank = t.shape().size();
  const Shape pt = pad_shape(target, rank);
  const Shape& src = t.shape();

  Tensor out(pt);
  const auto out_strides = broadcast_strides(pt, src);
  const float* in = t.data();
  float* o = out.data();

  // Walk every source element and accumulate into the (possibly stride-0)
  // target position.
  std::vector<std::int64_t> coord(rank, 0);
  const std::int64_t n = t.numel();
  for (std::int64_t flat = 0; flat < n; ++flat) {
    std::int64_t oi = 0;
    for (std::size_t d = 0; d < rank; ++d) oi += coord[d] * out_strides[d];
    o[oi] += in[flat];
    // increment coord
    for (std::size_t d = rank; d-- > 0;) {
      if (++coord[d] < src[d]) break;
      coord[d] = 0;
    }
  }
  return out.reshape(target);
}

Tensor broadcast_binary(const Tensor& a, const Tensor& b,
                        const std::function<float(float, float)>& f,
                        const char* op_name) {
  // Fast path: identical shapes.
  if (a.shape() == b.shape()) {
    Tensor out(a.shape());
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.data();
    runtime::parallel_for(0, a.numel(), kElemwiseGrain,
                          [&](std::int64_t lo, std::int64_t hi) {
                            for (std::int64_t i = lo; i < hi; ++i) {
                              po[i] = f(pa[i], pb[i]);
                            }
                          });
    return out;
  }
  // Fast path: b is a scalar tensor.
  if (b.numel() == 1) {
    const float s = b[0];
    Tensor out(a.shape());
    const float* pa = a.data();
    float* po = out.data();
    runtime::parallel_for(0, a.numel(), kElemwiseGrain,
                          [&](std::int64_t lo, std::int64_t hi) {
                            for (std::int64_t i = lo; i < hi; ++i) {
                              po[i] = f(pa[i], s);
                            }
                          });
    return out;
  }
  if (a.numel() == 1) {
    const float s = a[0];
    Tensor out(b.shape());
    const float* pb = b.data();
    float* po = out.data();
    runtime::parallel_for(0, b.numel(), kElemwiseGrain,
                          [&](std::int64_t lo, std::int64_t hi) {
                            for (std::int64_t i = lo; i < hi; ++i) {
                              po[i] = f(s, pb[i]);
                            }
                          });
    return out;
  }

  Shape out_shape;
  try {
    out_shape = broadcast_shape(a.shape(), b.shape());
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument(std::string(op_name) +
                                ": incompatible shapes " +
                                shape_string(a.shape()) + " and " +
                                shape_string(b.shape()));
  }

  const std::size_t rank = out_shape.size();
  const Shape pa_shape = pad_shape(a.shape(), rank);
  const Shape pb_shape = pad_shape(b.shape(), rank);
  const auto sa = broadcast_strides(pa_shape, out_shape);
  const auto sb = broadcast_strides(pb_shape, out_shape);

  Tensor out(out_shape);
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();

  runtime::parallel_for(
      0, out.numel(), kElemwiseGrain,
      [&](std::int64_t lo, std::int64_t hi) {
        // Derive this chunk's starting coordinate from its flat index, then
        // walk incrementally exactly like the serial loop did.
        std::vector<std::int64_t> coord(rank, 0);
        std::int64_t rem = lo;
        for (std::size_t d = rank; d-- > 0;) {
          coord[d] = rem % out_shape[d];
          rem /= out_shape[d];
        }
        for (std::int64_t flat = lo; flat < hi; ++flat) {
          std::int64_t ia = 0, ib = 0;
          for (std::size_t d = 0; d < rank; ++d) {
            ia += coord[d] * sa[d];
            ib += coord[d] * sb[d];
          }
          po[flat] = f(pa[ia], pb[ib]);
          for (std::size_t d = rank; d-- > 0;) {
            if (++coord[d] < out_shape[d]) break;
            coord[d] = 0;
          }
        }
      });
  return out;
}

Tensor add(const Tensor& a, const Tensor& b) {
  return broadcast_binary(a, b, [](float x, float y) { return x + y; }, "add");
}
Tensor sub(const Tensor& a, const Tensor& b) {
  return broadcast_binary(a, b, [](float x, float y) { return x - y; }, "sub");
}
Tensor mul(const Tensor& a, const Tensor& b) {
  return broadcast_binary(a, b, [](float x, float y) { return x * y; }, "mul");
}
Tensor div(const Tensor& a, const Tensor& b) {
  return broadcast_binary(a, b, [](float x, float y) { return x / y; }, "div");
}
Tensor maximum(const Tensor& a, const Tensor& b) {
  return broadcast_binary(
      a, b, [](float x, float y) { return x > y ? x : y; }, "maximum");
}
Tensor minimum(const Tensor& a, const Tensor& b) {
  return broadcast_binary(
      a, b, [](float x, float y) { return x < y ? x : y; }, "minimum");
}

Tensor unary(const Tensor& a, const std::function<float(float)>& f) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  runtime::parallel_for(0, a.numel(), kElemwiseGrain,
                        [&](std::int64_t lo, std::int64_t hi) {
                          for (std::int64_t i = lo; i < hi; ++i) {
                            po[i] = f(pa[i]);
                          }
                        });
  return out;
}

Tensor add_scalar(const Tensor& a, float s) {
  return unary(a, [s](float x) { return x + s; });
}
Tensor mul_scalar(const Tensor& a, float s) {
  return unary(a, [s](float x) { return x * s; });
}
Tensor neg(const Tensor& a) {
  return unary(a, [](float x) { return -x; });
}
Tensor exp(const Tensor& a) {
  return unary(a, [](float x) { return std::exp(x); });
}
Tensor log(const Tensor& a) {
  return unary(a, [](float x) { return std::log(x); });
}
Tensor sqrt(const Tensor& a) {
  return unary(a, [](float x) { return std::sqrt(x); });
}
Tensor abs(const Tensor& a) {
  return unary(a, [](float x) { return std::fabs(x); });
}
Tensor sign(const Tensor& a) {
  return unary(a, [](float x) { return x > 0 ? 1.0f : (x < 0 ? -1.0f : 0.0f); });
}
Tensor pow_scalar(const Tensor& a, float p) {
  return unary(a, [p](float x) { return std::pow(x, p); });
}
Tensor clamp(const Tensor& a, float lo, float hi) {
  return unary(a, [lo, hi](float x) { return std::min(hi, std::max(lo, x)); });
}
Tensor relu(const Tensor& a) {
  return unary(a, [](float x) { return x > 0 ? x : 0.0f; });
}
Tensor sigmoid(const Tensor& a) {
  return unary(a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); });
}
Tensor tanh(const Tensor& a) {
  return unary(a, [](float x) { return std::tanh(x); });
}

void axpy_inplace(Tensor& y, float alpha, const Tensor& x) {
  check_same_shape(y, x, "axpy_inplace");
  float* py = y.data();
  const float* px = x.data();
  runtime::parallel_for(0, y.numel(), kElemwiseGrain,
                        [&](std::int64_t lo, std::int64_t hi) {
                          for (std::int64_t i = lo; i < hi; ++i) {
                            py[i] += alpha * px[i];
                          }
                        });
}

// Full floating-point reductions (sum/mean/norms) and the scatter-style
// reductions below stay serial: splitting them across workers would reorder
// the accumulation and break the bitwise thread-count-invariance contract.
float sum_all(const Tensor& a) {
  double s = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i) s += a[i];
  return static_cast<float>(s);
}

float mean_all(const Tensor& a) {
  if (a.numel() == 0) return 0.0f;
  return sum_all(a) / static_cast<float>(a.numel());
}

float max_all(const Tensor& a) {
  if (a.numel() == 0) throw std::invalid_argument("max_all: empty tensor");
  float m = a[0];
  for (std::int64_t i = 1; i < a.numel(); ++i) m = std::max(m, a[i]);
  return m;
}

float l1_norm(const Tensor& a) {
  double s = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i) s += std::fabs(a[i]);
  return static_cast<float>(s);
}

float l2_norm(const Tensor& a) {
  double s = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    s += static_cast<double>(a[i]) * a[i];
  }
  return static_cast<float>(std::sqrt(s));
}

Tensor reduce_sum(const Tensor& a, const std::vector<std::int64_t>& axes,
                  bool keepdim) {
  const std::size_t rank = a.shape().size();
  std::vector<bool> reduced(rank, false);
  for (auto ax : axes) {
    if (ax < 0) ax += static_cast<std::int64_t>(rank);
    if (ax < 0 || ax >= static_cast<std::int64_t>(rank)) {
      throw std::invalid_argument("reduce_sum: axis out of range");
    }
    reduced[static_cast<std::size_t>(ax)] = true;
  }

  Shape kept_shape(rank);
  for (std::size_t d = 0; d < rank; ++d) {
    kept_shape[d] = reduced[d] ? 1 : a.shape()[d];
  }

  Tensor out(kept_shape);
  const auto out_strides = broadcast_strides(kept_shape, a.shape());
  const float* in = a.data();
  float* o = out.data();

  std::vector<std::int64_t> coord(rank, 0);
  const std::int64_t n = a.numel();
  for (std::int64_t flat = 0; flat < n; ++flat) {
    std::int64_t oi = 0;
    for (std::size_t d = 0; d < rank; ++d) oi += coord[d] * out_strides[d];
    o[oi] += in[flat];
    for (std::size_t d = rank; d-- > 0;) {
      if (++coord[d] < a.shape()[d]) break;
      coord[d] = 0;
    }
  }

  if (keepdim) return out;
  Shape squeezed;
  for (std::size_t d = 0; d < rank; ++d) {
    if (!reduced[d]) squeezed.push_back(a.shape()[d]);
  }
  return out.reshape(std::move(squeezed));
}

Tensor reduce_mean(const Tensor& a, const std::vector<std::int64_t>& axes,
                   bool keepdim) {
  Tensor s = reduce_sum(a, axes, keepdim);
  const std::int64_t denom = a.numel() / std::max<std::int64_t>(1, s.numel());
  return mul_scalar(s, 1.0f / static_cast<float>(denom));
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  if (a.dim() != 2 || b.dim() != 2 || a.size(1) != b.size(0)) {
    throw std::invalid_argument("matmul: incompatible shapes " +
                                shape_string(a.shape()) + " x " +
                                shape_string(b.shape()));
  }
  const std::int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  Tensor out({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();

  // i-k-j loop order: streams through b and out rows; good cache behaviour
  // for the row-major layout without an explicit blocking scheme. Output
  // rows are disjoint, so the row range parallelizes with no reductions;
  // the grain depends only on the shape, keeping results thread-invariant.
  runtime::parallel_for(
      0, m, runtime::grain_for_cost(k * n),
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          float* out_row = po + i * n;
          const float* a_row = pa + i * k;
          for (std::int64_t kk = 0; kk < k; ++kk) {
            const float av = a_row[kk];
            if (av == 0.0f) continue;
            const float* b_row = pb + kk * n;
            for (std::int64_t j = 0; j < n; ++j) out_row[j] += av * b_row[j];
          }
        }
      });
  return out;
}

Tensor transpose2d(const Tensor& a) {
  if (a.dim() != 2) {
    throw std::invalid_argument("transpose2d: expected rank 2, got " +
                                shape_string(a.shape()));
  }
  const std::int64_t r = a.size(0), c = a.size(1);
  Tensor out({c, r});
  runtime::parallel_for(0, r, runtime::grain_for_cost(c),
                        [&](std::int64_t lo, std::int64_t hi) {
                          for (std::int64_t i = lo; i < hi; ++i) {
                            for (std::int64_t j = 0; j < c; ++j) {
                              out.at2(j, i) = a.at2(i, j);
                            }
                          }
                        });
  return out;
}

std::vector<std::int64_t> argmax_rows(const Tensor& a) {
  if (a.dim() != 2) {
    throw std::invalid_argument("argmax_rows: expected rank 2");
  }
  const std::int64_t rows = a.size(0), cols = a.size(1);
  std::vector<std::int64_t> out(static_cast<std::size_t>(rows));
  runtime::parallel_for(0, rows, runtime::grain_for_cost(cols),
                        [&](std::int64_t lo, std::int64_t hi) {
                          for (std::int64_t i = lo; i < hi; ++i) {
                            const float* row = a.data() + i * cols;
                            std::int64_t best = 0;
                            for (std::int64_t j = 1; j < cols; ++j) {
                              if (row[j] > row[best]) best = j;
                            }
                            out[static_cast<std::size_t>(i)] = best;
                          }
                        });
  return out;
}

Tensor log_softmax_rows(const Tensor& a) {
  if (a.dim() != 2) {
    throw std::invalid_argument("log_softmax_rows: expected rank 2");
  }
  const std::int64_t rows = a.size(0), cols = a.size(1);
  Tensor out(a.shape());
  // Row-local reductions only; rows are independent, so parallelizing over
  // rows never reorders a floating-point sum.
  runtime::parallel_for(
      0, rows, runtime::grain_for_cost(cols),
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          const float* row = a.data() + i * cols;
          float* orow = out.data() + i * cols;
          float mx = row[0];
          for (std::int64_t j = 1; j < cols; ++j) mx = std::max(mx, row[j]);
          double denom = 0.0;
          for (std::int64_t j = 0; j < cols; ++j) {
            denom += std::exp(row[j] - mx);
          }
          const float log_denom = static_cast<float>(std::log(denom));
          for (std::int64_t j = 0; j < cols; ++j) {
            orow[j] = row[j] - mx - log_denom;
          }
        }
      });
  return out;
}

}  // namespace bd
