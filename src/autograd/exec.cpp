#include "autograd/exec.h"

#include <array>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>

#include "obs/obs.h"
#include "tensor/conv.h"
#include "tensor/ops.h"
#include "tensor/pool.h"

namespace bd::ag {

namespace {

const Tensor& in_value(const Node& n, std::size_t i) {
  return n.inputs[i]->value;
}

// kNllLoss is the last OpKind (graph.h).
constexpr std::size_t kOpKinds = static_cast<std::size_t>(OpKind::kNllLoss) + 1;

/// Opens n's `op.<kind>.fwd|bwd` probe, whose work items come from node
/// shapes: MACs for the contractions, output elements otherwise. The table
/// is built once (serve workers run graphs concurrently) from instruments
/// kernel_stats never frees. Callers test obs::enabled() first, so with
/// both pillars off a node pays one relaxed load.
void open_probe(std::optional<obs::KernelScope>& probe, const Node& n,
                std::size_t bwd) {
  static const auto stats = [] {
    std::array<obs::KernelStats*, 2 * kOpKinds> t{};
    for (std::size_t i = 0; i < t.size(); ++i) {
      t[i] = &obs::kernel_stats(std::string("op.") +
                                op_kind_name(static_cast<OpKind>(i / 2)) +
                                (i % 2 != 0 ? ".bwd" : ".fwd"));
    }
    return t;
  }();
  std::int64_t items = shape_numel(n.shape);
  if (n.kind == OpKind::kConv2d || n.kind == OpKind::kDepthwiseConv2d) {
    const Shape& w = n.inputs[1]->shape;  // (Cout, Cin or 1, KH, KW)
    items *= w[1] * w[2] * w[3];
  } else if (n.kind == OpKind::kMatmul) {
    items *= n.inputs[0]->shape[1];
  }
  probe.emplace(*stats[2 * static_cast<std::size_t>(n.kind) + bwd], items);
}

}  // namespace

void execute_forward(Node& n) {
  std::optional<obs::KernelScope> probe;
  if (obs::enabled()) open_probe(probe, n, /*bwd=*/0);
  switch (n.kind) {
    case OpKind::kLeaf:
      return;
    case OpKind::kAdd:
      n.value = bd::add(in_value(n, 0), in_value(n, 1));
      return;
    case OpKind::kSub:
      n.value = bd::sub(in_value(n, 0), in_value(n, 1));
      return;
    case OpKind::kMul:
      n.value = bd::mul(in_value(n, 0), in_value(n, 1));
      return;
    case OpKind::kDiv:
      n.value = bd::div(in_value(n, 0), in_value(n, 1));
      return;
    case OpKind::kAddScalar:
      n.value = bd::add_scalar(in_value(n, 0), n.scalar);
      return;
    case OpKind::kMulScalar:
      n.value = bd::mul_scalar(in_value(n, 0), n.scalar);
      return;
    case OpKind::kExp:
      n.value = bd::exp(in_value(n, 0));
      return;
    case OpKind::kLog:
      n.value = bd::log(in_value(n, 0));
      return;
    case OpKind::kSqrt:
      n.value = bd::sqrt(in_value(n, 0));
      return;
    case OpKind::kAbs:
      n.value = bd::abs(in_value(n, 0));
      return;
    case OpKind::kPowScalar:
      n.value = bd::pow_scalar(in_value(n, 0), n.scalar);
      return;
    case OpKind::kClamp:
      n.value = bd::clamp(in_value(n, 0), n.lo, n.hi);
      return;
    case OpKind::kRelu:
      n.value = bd::relu(in_value(n, 0));
      return;
    case OpKind::kSigmoid:
      n.value = bd::sigmoid(in_value(n, 0));
      return;
    case OpKind::kTanh:
      n.value = bd::tanh(in_value(n, 0));
      return;
    case OpKind::kHardsigmoid:
      n.value = bd::unary(in_value(n, 0), [](float x) {
        return std::min(1.0f, std::max(0.0f, (x + 3.0f) / 6.0f));
      });
      return;
    case OpKind::kHardswish:
      n.value = bd::unary(in_value(n, 0), [](float x) {
        return x * std::min(1.0f, std::max(0.0f, (x + 3.0f) / 6.0f));
      });
      return;
    case OpKind::kReshape:
      n.value = in_value(n, 0).reshape(n.shape);
      return;
    case OpKind::kReduceSum:
      n.value = bd::reduce_sum(in_value(n, 0), n.axes, n.keepdim);
      return;
    case OpKind::kSumAll:
      n.value = Tensor::scalar(bd::sum_all(in_value(n, 0)));
      return;
    case OpKind::kMatmul:
      n.value = bd::matmul(in_value(n, 0), in_value(n, 1));
      return;
    case OpKind::kConv2d:
      n.value = conv2d_forward(in_value(n, 0), in_value(n, 1),
                               n.inputs.size() == 3 ? in_value(n, 2)
                                                    : Tensor(),
                               n.conv);
      return;
    case OpKind::kDepthwiseConv2d:
      n.value = depthwise_conv2d_forward(in_value(n, 0), in_value(n, 1),
                                         n.inputs.size() == 3
                                             ? in_value(n, 2)
                                             : Tensor(),
                                         n.conv);
      return;
    case OpKind::kMaxPool2d: {
      MaxPoolResult res = maxpool2d_forward(in_value(n, 0), n.pool);
      n.argmax = std::make_shared<std::vector<std::int64_t>>(
          std::move(res.argmax));
      n.value = std::move(res.output);
      return;
    }
    case OpKind::kAvgPool2d:
      n.value = avgpool2d_forward(in_value(n, 0), n.pool);
      return;
    case OpKind::kGlobalAvgPool:
      n.value = global_avgpool_forward(in_value(n, 0));
      return;
    case OpKind::kLogSoftmax:
      n.value = log_softmax_rows(in_value(n, 0));
      return;
    case OpKind::kNllLoss: {
      const Tensor& lp = in_value(n, 0);
      const std::int64_t rows = lp.size(0);
      double loss = 0.0;
      for (std::int64_t i = 0; i < rows; ++i) {
        loss -= lp.at2(i, (*n.labels)[static_cast<std::size_t>(i)]);
      }
      loss /= static_cast<double>(rows);
      n.value = Tensor::scalar(static_cast<float>(loss));
      return;
    }
  }
  throw std::logic_error("execute_forward: unhandled op kind");
}

void execute_backward(const Node& n, const GradSink& sink) {
  std::optional<obs::KernelScope> probe;
  if (obs::enabled()) open_probe(probe, n, /*bwd=*/1);
  switch (n.kind) {
    case OpKind::kLeaf:
      return;
    case OpKind::kAdd:
      sink(n.inputs[0], n.grad);
      sink(n.inputs[1], n.grad);
      return;
    case OpKind::kSub:
      sink(n.inputs[0], n.grad);
      sink(n.inputs[1], bd::neg(n.grad));
      return;
    case OpKind::kMul:
      sink(n.inputs[0], bd::mul(n.grad, in_value(n, 1)));
      sink(n.inputs[1], bd::mul(n.grad, in_value(n, 0)));
      return;
    case OpKind::kDiv: {
      const Tensor& av = in_value(n, 0);
      const Tensor& bv = in_value(n, 1);
      sink(n.inputs[0], bd::div(n.grad, bv));
      // d/db (a/b) = -a / b^2
      sink(n.inputs[1],
           bd::neg(bd::div(bd::mul(n.grad, av), bd::mul(bv, bv))));
      return;
    }
    case OpKind::kAddScalar:
      sink(n.inputs[0], n.grad);
      return;
    case OpKind::kMulScalar:
      sink(n.inputs[0], bd::mul_scalar(n.grad, n.scalar));
      return;
    case OpKind::kExp:
      sink(n.inputs[0], bd::mul(n.grad, n.value));
      return;
    case OpKind::kLog:
      sink(n.inputs[0], bd::div(n.grad, in_value(n, 0)));
      return;
    case OpKind::kSqrt:
      sink(n.inputs[0], bd::div(n.grad, bd::mul_scalar(n.value, 2.0f)));
      return;
    case OpKind::kAbs:
      sink(n.inputs[0], bd::mul(n.grad, bd::sign(in_value(n, 0))));
      return;
    case OpKind::kPowScalar:
      sink(n.inputs[0],
           bd::mul(n.grad,
                   bd::mul_scalar(bd::pow_scalar(in_value(n, 0),
                                                 n.scalar - 1.0f),
                                  n.scalar)));
      return;
    case OpKind::kClamp: {
      const float lo = n.lo, hi = n.hi;
      const Tensor mask = bd::unary(in_value(n, 0), [lo, hi](float x) {
        return (x > lo && x < hi) ? 1.0f : 0.0f;
      });
      sink(n.inputs[0], bd::mul(n.grad, mask));
      return;
    }
    case OpKind::kRelu: {
      const Tensor mask = bd::unary(
          in_value(n, 0), [](float x) { return x > 0 ? 1.0f : 0.0f; });
      sink(n.inputs[0], bd::mul(n.grad, mask));
      return;
    }
    case OpKind::kSigmoid: {
      const Tensor d =
          bd::unary(n.value, [](float s) { return s * (1.0f - s); });
      sink(n.inputs[0], bd::mul(n.grad, d));
      return;
    }
    case OpKind::kTanh: {
      const Tensor d =
          bd::unary(n.value, [](float t) { return 1.0f - t * t; });
      sink(n.inputs[0], bd::mul(n.grad, d));
      return;
    }
    case OpKind::kHardsigmoid: {
      const Tensor d = bd::unary(in_value(n, 0), [](float x) {
        return (x > -3.0f && x < 3.0f) ? (1.0f / 6.0f) : 0.0f;
      });
      sink(n.inputs[0], bd::mul(n.grad, d));
      return;
    }
    case OpKind::kHardswish: {
      const Tensor d = bd::unary(in_value(n, 0), [](float x) {
        if (x <= -3.0f) return 0.0f;
        if (x >= 3.0f) return 1.0f;
        return (2.0f * x + 3.0f) / 6.0f;
      });
      sink(n.inputs[0], bd::mul(n.grad, d));
      return;
    }
    case OpKind::kReshape:
      sink(n.inputs[0], n.grad.reshape(n.inputs[0]->shape));
      return;
    case OpKind::kReduceSum: {
      // Broadcast the (keepdim-shaped) gradient back over reduced dims.
      // add-with-zeros rather than a broadcast copy: (-0)+(+0) == +0, so a
      // copy would NOT be bitwise-identical to the historical formulation.
      const Tensor g = n.grad.reshape(n.kept_shape);
      sink(n.inputs[0], bd::add(g, Tensor::zeros(n.inputs[0]->shape)));
      return;
    }
    case OpKind::kSumAll:
      sink(n.inputs[0], Tensor::full(n.inputs[0]->shape, n.grad[0]));
      return;
    case OpKind::kMatmul:
      sink(n.inputs[0], bd::matmul(n.grad, transpose2d(in_value(n, 1))));
      sink(n.inputs[1], bd::matmul(transpose2d(in_value(n, 0)), n.grad));
      return;
    case OpKind::kConv2d:
    case OpKind::kDepthwiseConv2d: {
      const bool has_bias = n.inputs.size() == 3;
      const Conv2dGrads grads =
          n.kind == OpKind::kConv2d
              ? conv2d_backward(in_value(n, 0), in_value(n, 1), has_bias,
                                n.grad, n.conv)
              : depthwise_conv2d_backward(in_value(n, 0), in_value(n, 1),
                                          has_bias, n.grad, n.conv);
      sink(n.inputs[0], grads.grad_input);
      sink(n.inputs[1], grads.grad_weight);
      if (has_bias) sink(n.inputs[2], grads.grad_bias);
      return;
    }
    case OpKind::kMaxPool2d:
      sink(n.inputs[0],
           maxpool2d_backward(n.inputs[0]->shape, *n.argmax, n.grad));
      return;
    case OpKind::kAvgPool2d:
      sink(n.inputs[0],
           avgpool2d_backward(n.inputs[0]->shape, n.grad, n.pool));
      return;
    case OpKind::kGlobalAvgPool:
      sink(n.inputs[0], global_avgpool_backward(n.inputs[0]->shape, n.grad));
      return;
    case OpKind::kLogSoftmax: {
      // dL/dx = g - softmax(x) * sum_j(g_j) per row.
      const Tensor& out = n.value;
      const std::int64_t rows = out.size(0), cols = out.size(1);
      Tensor gin(out.shape());
      for (std::int64_t i = 0; i < rows; ++i) {
        const float* g = n.grad.data() + i * cols;
        const float* lp = out.data() + i * cols;
        float* o = gin.data() + i * cols;
        double gsum = 0.0;
        for (std::int64_t j = 0; j < cols; ++j) gsum += g[j];
        for (std::int64_t j = 0; j < cols; ++j) {
          o[j] = g[j] - std::exp(lp[j]) * static_cast<float>(gsum);
        }
      }
      sink(n.inputs[0], gin);
      return;
    }
    case OpKind::kNllLoss: {
      const Shape& lp_shape = n.inputs[0]->shape;
      const float g = n.grad[0] / static_cast<float>(lp_shape[0]);
      Tensor gin(lp_shape);
      for (std::int64_t i = 0; i < lp_shape[0]; ++i) {
        gin.at2(i, (*n.labels)[static_cast<std::size_t>(i)]) = -g;
      }
      sink(n.inputs[0], gin);
      return;
    }
  }
  throw std::logic_error("execute_backward: unhandled op kind");
}

}  // namespace bd::ag
