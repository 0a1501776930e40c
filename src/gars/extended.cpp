// Extended GARs: geometric median (RFA / smoothed Weiszfeld), centered
// clipping and norm-based comparative gradient elimination. These are the
// "other rules" §7 of the paper says Garfield can straightforwardly
// include; they share the same aggregate_into() interface and register
// their descriptors (with typed options) in the GarRegistry below.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "gars/gar.h"
#include "gars/registry.h"

namespace garfield::gars {

namespace {

void require(bool cond, const std::string& message) {
  if (!cond) throw std::invalid_argument(message);
}

}  // namespace

// ----------------------------------------------------- registry descriptors

namespace detail {

void register_extended_gars(GarRegistry& registry) {
  registry.add(
      {.name = "geometric_median",
       .min_n = [](std::size_t f) { return 2 * f + 1; },
       .option_floor = {},
       .factory = [](std::size_t n, std::size_t f,
                     const GarOptions& options) -> GarPtr {
         GeometricMedian::Options o;
         o.max_iterations =
             options.get_size("max_iterations", o.max_iterations);
         o.tolerance = options.get_double("tolerance", o.tolerance);
         o.smoothing = options.get_double("smoothing", o.smoothing);
         return std::make_unique<GeometricMedian>(n, f, o);
       }});
  registry.add(
      {.name = "centered_clip",
       .min_n = [](std::size_t f) { return 2 * f + 1; },
       .option_floor = {},
       .factory = [](std::size_t n, std::size_t f,
                     const GarOptions& options) -> GarPtr {
         CenteredClip::Options o;
         o.iterations = options.get_size("iterations", o.iterations);
         o.tau = options.get_double("tau", o.tau);
         return std::make_unique<CenteredClip>(n, f, o);
       }});
  registry.add(
      {.name = "cge",
       .min_n = [](std::size_t f) { return 2 * f + 1; },
       // keep=K averages K inputs, so the quorum must hold at least K.
       .option_floor =
           [](std::size_t, const GarOptions& options) {
             return options.get_size("keep", 1);
           },
       .factory = [](std::size_t n, std::size_t f,
                     const GarOptions& options) -> GarPtr {
         return std::make_unique<Cge>(n, f, options.get_size("keep", n - f));
       }});
}

}  // namespace detail

// --------------------------------------------------------- GeometricMedian

GeometricMedian::GeometricMedian(std::size_t n, std::size_t f,
                                 Options options)
    : Gar(n, f), options_(options) {
  require(n >= 2 * f + 1, "geometric_median: requires n >= 2f+1");
  require(options_.max_iterations > 0,
          "geometric_median: needs at least one iteration");
  require(options_.tolerance >= 0.0 && std::isfinite(options_.tolerance),
          "geometric_median: tolerance must be finite and >= 0");
  require(options_.smoothing > 0.0 && std::isfinite(options_.smoothing),
          "geometric_median: smoothing must be finite and > 0");
}

void GeometricMedian::do_aggregate(Rows inputs, AggregationContext& ctx,
                                   FlatVector& out) const {
  const std::size_t d = inputs.front().size();
  // Start from the coordinate-wise mean and run Weiszfeld updates:
  //   z <- sum_i(x_i / max(||x_i - z||, eps)) / sum_i(1 / max(...)).
  // `out` doubles as the current center; `next` is ctx scratch.
  tensor::mean_into(inputs, out);

  FlatVector& next = ctx.vector_scratch(0, d);
  for (std::size_t it = 0; it < options_.max_iterations; ++it) {
    double weight_sum = 0.0;
    std::fill(next.begin(), next.end(), 0.0F);
    bool on_point = false;
    for (const Row x : inputs) {
      const double dist = std::sqrt(tensor::squared_distance(x, out));
      if (dist < options_.smoothing) {
        // Weiszfeld is undefined exactly on an input; that input is
        // already a 1/n-weight optimum candidate — snap to it.
        std::copy(x.begin(), x.end(), out.begin());
        on_point = true;
        break;
      }
      const double w = 1.0 / dist;
      weight_sum += w;
      tensor::axpy(float(w), x, next);
    }
    if (on_point) break;
    tensor::scale(next, float(1.0 / weight_sum));
    const double moved = tensor::squared_distance(next, out);
    const double scale = std::max(1.0, tensor::dot(out, out));
    out.swap(next);
    if (moved / scale < options_.tolerance * options_.tolerance) break;
  }
}

// ------------------------------------------------------------ CenteredClip

CenteredClip::CenteredClip(std::size_t n, std::size_t f, Options options)
    : Gar(n, f), options_(options) {
  require(n >= 2 * f + 1, "centered_clip: requires n >= 2f+1");
  require(options_.iterations > 0,
          "centered_clip: needs at least one iteration");
  require(options_.tau >= 0.0 && std::isfinite(options_.tau),
          "centered_clip: tau must be finite and >= 0 (0 = auto)");
}

void CenteredClip::do_aggregate(Rows inputs, AggregationContext& ctx,
                                FlatVector& out) const {
  const std::size_t n = inputs.size();
  const std::size_t d = inputs.front().size();
  // Start from the mean (built in `out`). Karimireddy et al. start from the
  // previous round's aggregated momentum, which a stateless rule does not
  // have. The mean can sit far from the honest cloud, but each clipped
  // round caps a Byzantine input's pull at tau/n, so the rounds walk it back.
  tensor::mean_into(inputs, out);

  FlatVector& shift = ctx.vector_scratch(0, d);
  std::vector<double>& dists = ctx.score_scratch(n);
  for (std::size_t it = 0; it < options_.iterations; ++it) {
    // Auto radius: median distance from the current center.
    double tau = options_.tau;
    if (tau <= 0.0) {
      for (std::size_t i = 0; i < n; ++i) {
        dists[i] = std::sqrt(tensor::squared_distance(inputs[i], out));
      }
      std::nth_element(dists.begin(), dists.begin() + long(n / 2),
                       dists.end());
      tau = dists[n / 2];
      if (tau == 0.0) break;  // all inputs at the center already
    }
    // center += (1/n) sum_i clip(x_i - center, tau)
    std::fill(shift.begin(), shift.end(), 0.0F);
    for (const Row x : inputs) {
      const double dist = std::sqrt(tensor::squared_distance(x, out));
      const double lambda = dist > tau ? tau / dist : 1.0;
      for (std::size_t j = 0; j < d; ++j) {
        shift[j] += float(lambda * (double(x[j]) - double(out[j])));
      }
    }
    tensor::scale(shift, 1.0F / float(n));
    tensor::add(out, shift, out);
  }
}

// -------------------------------------------------------------------- Cge

Cge::Cge(std::size_t n, std::size_t f) : Cge(n, f, n - f) {}

Cge::Cge(std::size_t n, std::size_t f, std::size_t keep)
    : Gar(n, f), keep_(keep) {
  require(n >= 2 * f + 1, "cge: requires n >= 2f+1");
  require(keep_ >= 1 && keep_ <= n,
          "cge: keep must be in [1, n] (got " + std::to_string(keep_) +
              " for n=" + std::to_string(n) + ")");
}

void Cge::do_aggregate(Rows inputs, AggregationContext& ctx,
                       FlatVector& out) const {
  const std::size_t n = inputs.size();
  std::vector<std::size_t>& order = ctx.index_scratch(n);
  std::iota(order.begin(), order.end(), std::size_t(0));
  std::vector<double>& norms = ctx.score_scratch(n);
  for (std::size_t i = 0; i < n; ++i) {
    norms[i] = tensor::dot(inputs[i], inputs[i]);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (norms[a] != norms[b]) return norms[a] < norms[b];
    return std::lexicographical_compare(inputs[a].begin(), inputs[a].end(),
                                        inputs[b].begin(), inputs[b].end());
  });
  std::fill(out.begin(), out.end(), 0.0F);
  for (std::size_t k = 0; k < keep_; ++k) {
    tensor::axpy(1.0F, inputs[order[k]], out);
  }
  tensor::scale(out, 1.0F / float(keep_));
}

}  // namespace garfield::gars
