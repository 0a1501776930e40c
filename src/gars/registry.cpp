#include "gars/registry.h"

#include <algorithm>
#include <stdexcept>

namespace garfield::gars {

namespace {

using util::valid_identifier;

/// Universal input-rewriting decorator: L2-clip every input to `radius`
/// before handing the set to the wrapped rule. Gradient clipping composes
/// with any GAR and caps the leverage of magnitude attacks before the
/// rule's own filtering runs.
class PreClipped final : public Gar {
 public:
  PreClipped(GarPtr inner, double radius)
      : Gar(inner->n(), inner->f()),
        inner_(std::move(inner)),
        radius_(radius) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }

 protected:
  void do_aggregate(Rows inputs, AggregationContext& ctx,
                    FlatVector& out) const override {
    const std::size_t n = inputs.size();
    const std::size_t d = inputs.front().size();
    std::vector<FlatVector>& staged = ctx.input_scratch(n, d);
    for (std::size_t i = 0; i < n; ++i) {
      const double norm = tensor::norm(inputs[i]);
      if (norm > radius_) {
        const float scale = float(radius_ / norm);
        for (std::size_t j = 0; j < d; ++j) {
          staged[i][j] = inputs[i][j] * scale;
        }
      } else {
        std::copy(inputs[i].begin(), inputs[i].end(), staged[i].begin());
      }
    }
    // The loop above was the last read of `inputs`, which may be the
    // context's row views of the caller's vectors: only now may the inner
    // call rebuild those views over the clipped copies.
    inner_->aggregate_into(staged, ctx, out);
  }

 private:
  GarPtr inner_;
  double radius_;
};

}  // namespace

// --------------------------------------------------------- parse_gar_spec

GarSpec parse_gar_spec(const std::string& spec) {
  return util::parse_spec(spec, "gar spec");
}

// ------------------------------------------------------------ GarRegistry

GarRegistry::GarRegistry() {
  detail::register_core_gars(*this);
  detail::register_extended_gars(*this);
}

GarRegistry& GarRegistry::instance() {
  static GarRegistry registry;
  return registry;
}

void GarRegistry::add(GarDescriptor descriptor) {
  if (!valid_identifier(descriptor.name)) {
    throw std::invalid_argument("gar registry: bad rule name '" +
                                descriptor.name + "'");
  }
  if (!descriptor.min_n || !descriptor.factory) {
    throw std::invalid_argument("gar registry: rule '" + descriptor.name +
                                "' is missing min_n or factory");
  }
  if (find(descriptor.name) != nullptr) {
    throw std::invalid_argument("gar registry: rule '" + descriptor.name +
                                "' is already registered");
  }
  descriptors_.push_back(std::move(descriptor));
}

const GarDescriptor* GarRegistry::find(const std::string& name) const {
  for (const GarDescriptor& d : descriptors_) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

const GarDescriptor& GarRegistry::at(const std::string& name) const {
  const GarDescriptor* d = find(name);
  if (d == nullptr) {
    throw std::invalid_argument("gar registry: unknown GAR '" + name + "'");
  }
  return *d;
}

std::vector<std::string> GarRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(descriptors_.size());
  for (const GarDescriptor& d : descriptors_) out.push_back(d.name);
  return out;
}

// ------------------------------------------------- registry-backed make_gar

namespace {

std::size_t effective_min_n(const GarDescriptor& desc, std::size_t f,
                            const GarOptions& options) {
  std::size_t floor = desc.min_n(f);
  if (desc.option_floor) {
    floor = std::max(floor, desc.option_floor(f, options));
  }
  return floor;
}

}  // namespace

std::size_t gar_min_n(const GarSpec& spec, std::size_t f) {
  return effective_min_n(GarRegistry::instance().at(spec.name), f,
                         spec.options);
}

GarPtr make_gar(const GarSpec& spec, std::size_t n, std::size_t f) {
  const GarDescriptor& desc = GarRegistry::instance().at(spec.name);
  const std::size_t floor = effective_min_n(desc, f, spec.options);
  if (n < floor) {
    throw std::invalid_argument(
        "make_gar: " + spec.name + " requires n >= " + std::to_string(floor) +
        " for f=" + std::to_string(f) + " (got n=" + std::to_string(n) +
        ")");
  }
  GarPtr gar = desc.factory(n, f, spec.options);

  // Universal options, applied outside the factories.
  const double pre_clip = spec.options.get_double("pre_clip", 0.0);
  if (spec.options.contains("pre_clip")) {
    if (!(pre_clip > 0.0)) {
      throw std::invalid_argument(
          "gar spec: pre_clip expects a radius > 0");
    }
    gar = std::make_unique<PreClipped>(std::move(gar), pre_clip);
  }

  const std::vector<std::string> leftover = spec.options.unconsumed();
  if (!leftover.empty()) {
    std::string what =
        "make_gar: unknown option(s) for rule '" + spec.name + "':";
    for (const std::string& key : leftover) what += " '" + key + "'";
    throw std::invalid_argument(what);
  }
  return gar;
}

// -------------------------------------- string API (thin registry queries)

std::vector<std::string> gar_names() {
  return GarRegistry::instance().names();
}

std::size_t gar_min_n(const std::string& spec, std::size_t f) {
  return gar_min_n(parse_gar_spec(spec), f);
}

GarPtr make_gar(const std::string& spec, std::size_t n, std::size_t f) {
  return make_gar(parse_gar_spec(spec), n, f);
}

}  // namespace garfield::gars
