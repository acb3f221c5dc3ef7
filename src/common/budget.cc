#include "common/budget.h"

#include "common/memory_budget.h"

namespace olapdc {

Status Budget::Check() const {
  if (cancel_.cancelled()) {
    return Status::Cancelled("operation cancelled by caller");
  }
  if (memory_ != nullptr && memory_->exhausted()) {
    return memory_->ExhaustedStatus();
  }
  if (deadline_.has_value() && Clock::now() >= *deadline_) {
    return Status::DeadlineExceeded("wall-clock deadline exceeded");
  }
  return Status::OK();
}

}  // namespace olapdc
