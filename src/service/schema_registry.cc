#include "service/schema_registry.h"

#include <utility>

#include "io/schema_io.h"
#include "obs/metrics.h"

namespace olapdc::service {

Status SchemaRegistry::Register(const std::string& name,
                                std::string_view schema_text,
                                const Budget* budget) {
  // Parse entirely outside the lock: an adversarial schema burns its
  // own request budget, not the registry's availability.
  OLAPDC_ASSIGN_OR_RETURN(DimensionSchema parsed,
                          ParseSchemaText(schema_text, budget));
  Install(name, std::make_shared<const DimensionSchema>(std::move(parsed)));
  return Status::OK();
}

void SchemaRegistry::RegisterParsed(const std::string& name,
                                    DimensionSchema schema) {
  Install(name, std::make_shared<const DimensionSchema>(std::move(schema)));
}

void SchemaRegistry::Install(const std::string& name,
                             std::shared_ptr<const DimensionSchema> entry) {
  // The epoch is the fingerprint of the *serialized* schema: content
  // addressing, computed outside the lock. Re-registering identical
  // content keeps the old epoch, so warm caches stay valid (same Σ ⇒
  // same answers); any semantic edit changes the serialization and
  // thereby atomically orphans every cached answer.
  Snapshot snapshot;
  snapshot.epoch = FingerprintBytes(SerializeSchema(*entry));
  snapshot.schema = std::move(entry);

  bool invalidated = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = schemas_.find(name);
    if (it != schemas_.end() && !(it->second.epoch == snapshot.epoch)) {
      ++invalidations_;
      invalidated = true;
    }
    schemas_[name] = std::move(snapshot);
  }
  if (invalidated && obs::MetricsEnabled()) {
    obs::Count("olapdc.cache.invalidations");
  }
}

std::shared_ptr<const DimensionSchema> SchemaRegistry::Find(
    const std::string& name) const {
  return FindEntry(name).schema;
}

SchemaRegistry::Snapshot SchemaRegistry::FindEntry(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = schemas_.find(name);
  return it == schemas_.end() ? Snapshot{} : it->second;
}

size_t SchemaRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return schemas_.size();
}

uint64_t SchemaRegistry::invalidations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return invalidations_;
}

}  // namespace olapdc::service
