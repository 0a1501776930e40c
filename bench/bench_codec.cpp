// Wire codec cost: encode and decode of one gradient (net/codec.h).
//
// For int8, topk:k=0.01 and topk:k=0.1, at the dimensions of tiny_mlp (the
// ssmw-byz and dec-mlp benchmark workloads), small_mlp (msmw-mlp) and
// cifarnet (ssmw-cnn), each the median of the timed calls after warm-up
// calls:
//   enc_us      Codec::encode_gradient without a residual (a Byzantine
//               reply, a crafted frame);
//   encfb_us    the same with an error-feedback residual carried from call
//               to call (an honest worker's reply);
//   dec_us      Codec::decode of the frame back to d floats (the receiving
//               server's ingress);
// and beside each its MB/s: the dense gradient's 4·d bytes per time. The
// inputs cycle through eight N(0,1) gradients, so a residual stays the
// size of a few rounds' dropped mass. GARFIELD_BENCH_SMOKE=1 cuts the
// calls to a few.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_support.h"
#include "net/codec.h"
#include "nn/zoo.h"
#include "tensor/rng.h"

namespace gn = garfield::net;
namespace gt = garfield::tensor;

namespace {

std::size_t warmup_calls() { return garfield::bench::smoke_mode() ? 2 : 50; }
std::size_t timed_calls() { return garfield::bench::smoke_mode() ? 5 : 401; }

constexpr std::size_t kInputs = 8;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Median us of fn(call) over the timed calls, call counting on from the
/// warm-up calls.
template <class Fn>
double median_us(Fn&& fn) {
  std::size_t call = 0;
  for (; call < warmup_calls(); ++call) fn(call);
  std::vector<double> us;
  us.reserve(timed_calls());
  for (std::size_t i = 0; i < timed_calls(); ++i, ++call) {
    const auto start = std::chrono::steady_clock::now();
    fn(call);
    us.push_back(std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - start)
                     .count());
  }
  return median(us);
}

}  // namespace

int main() {
  std::printf("codec encode/decode of one gradient: median of %zu calls "
              "after %zu warm-up calls;\nMB/s = 4*d bytes / time\n\n",
              timed_calls(), warmup_calls());
  std::printf("%-10s %6s %-12s %10s %10s %10s %10s %10s %10s\n", "model",
              "d", "codec", "enc_us", "enc_MB/s", "encfb_us", "encfb_MB/s",
              "dec_us", "dec_MB/s");
  for (const char* model : {"tiny_mlp", "small_mlp", "cifarnet"}) {
    gt::Rng rng(1);
    const std::size_t d = garfield::nn::make_model(model, rng)->parameters()
                              .size();
    std::vector<gn::Payload> inputs(kInputs, gn::Payload(d));
    for (gn::Payload& g : inputs) {
      for (float& x : g) x = rng.normal(0.0F, 1.0F);
    }
    const double mb = 4.0 * double(d) / 1e6;
    for (const char* spec : {"int8", "topk:k=0.01", "topk:k=0.1"}) {
      const gn::Codec codec(gn::CodecSpec::parse(spec));
      gn::Payload frame;
      const double enc = median_us([&](std::size_t call) {
        frame = codec.encode_gradient(inputs[call % kInputs]);
      });
      gn::Payload residual;
      const double encfb = median_us([&](std::size_t call) {
        frame = codec.encode_gradient(inputs[call % kInputs], &residual);
      });
      std::optional<gn::Payload> dense;
      const double dec = median_us(
          [&](std::size_t) { dense = gn::Codec::decode(frame, d); });
      if (!dense) {
        std::fprintf(stderr, "%s frame of %s did not decode\n", spec, model);
        return 1;
      }
      std::printf(
          "%-10s %6zu %-12s %10.2f %10.1f %10.2f %10.1f %10.2f %10.1f\n",
          model, d, spec, enc, mb / enc * 1e6, encfb, mb / encfb * 1e6, dec,
          mb / dec * 1e6);
    }
  }
  return 0;
}
