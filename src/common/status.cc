#include "src/common/status.h"

namespace xdb {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kParseError:
      return "ParseError";
    case StatusCode::kBindError:
      return "BindError";
    case StatusCode::kCatalogError:
      return "CatalogError";
    case StatusCode::kExecutionError:
      return "ExecutionError";
    case StatusCode::kNetworkError:
      return "NetworkError";
    case StatusCode::kNotImplemented:
      return "NotImplemented";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kUnavailable:
      return "Unavailable";
    case StatusCode::kTimeout:
      return "Timeout";
  }
  return "Unknown";
}

const char* FaultOpToString(FaultOp op) {
  switch (op) {
    case FaultOp::kDdl:
      return "ddl";
    case FaultOp::kQuery:
      return "query";
    case FaultOp::kFetch:
      return "fetch";
    case FaultOp::kTransfer:
      return "transfer";
  }
  return "unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeToString(code());
  out += ": ";
  out += message();
  return out;
}

Status Status::WithContext(const std::string& context) const {
  if (ok()) return *this;
  Status st(code(), context + ": " + message());
  st.state_->site = state_->site;
  return st;
}

Status Status::WithSite(FailureSite site) const {
  if (ok()) return *this;
  Status st(code(), message());
  st.state_->site = std::move(site);
  return st;
}

}  // namespace xdb
