#ifndef FUSION_FORMAT_FPQ_INTERNAL_H_
#define FUSION_FORMAT_FPQ_INTERNAL_H_

// Shared (private) serialization helpers for the FPQ writer and reader.

#include <cstring>
#include <string>
#include <vector>

#include "arrow/array.h"
#include "arrow/scalar.h"
#include "common/result.h"

namespace fusion {
namespace format {
namespace fpq {
namespace internal {

class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U32(uint32_t v) { Raw(&v, 4); }
  void U64(uint64_t v) { Raw(&v, 8); }
  void I64(int64_t v) { Raw(&v, 8); }
  void F64(double v) { Raw(&v, 8); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  void Raw(const void* data, size_t len) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + len);
  }
  const std::vector<uint8_t>& buffer() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::vector<uint8_t> buf_;
};

class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  Status Raw(void* out, size_t len) {
    if (len > remaining()) return Status::IOError("fpq: truncated metadata");
    std::memcpy(out, data_ + pos_, len);
    pos_ += len;
    return Status::OK();
  }
  Result<uint8_t> U8() {
    uint8_t v = 0;
    FUSION_RETURN_NOT_OK(Raw(&v, 1));
    return v;
  }
  Result<uint32_t> U32() {
    uint32_t v = 0;
    FUSION_RETURN_NOT_OK(Raw(&v, 4));
    return v;
  }
  Result<uint64_t> U64() {
    uint64_t v = 0;
    FUSION_RETURN_NOT_OK(Raw(&v, 8));
    return v;
  }
  Result<int64_t> I64() {
    int64_t v = 0;
    FUSION_RETURN_NOT_OK(Raw(&v, 8));
    return v;
  }
  Result<double> F64() {
    double v = 0;
    FUSION_RETURN_NOT_OK(Raw(&v, 8));
    return v;
  }
  Result<std::string> Str() {
    FUSION_ASSIGN_OR_RAISE(uint32_t len, U32());
    if (len > remaining()) return Status::IOError("fpq: truncated metadata");
    std::string s(len, '\0');
    FUSION_RETURN_NOT_OK(Raw(s.data(), len));
    return s;
  }
  const uint8_t* cursor() const { return data_ + pos_; }
  size_t remaining() const { return size_ - pos_; }
  Status Skip(size_t len) {
    if (len > remaining()) return Status::IOError("fpq: truncated metadata");
    pos_ += len;
    return Status::OK();
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Serialize a statistics scalar: flag byte (0 = null), then payload.
inline void WriteScalar(ByteWriter* w, const Scalar& s, DataType type) {
  if (s.is_null()) {
    w->U8(0);
    return;
  }
  w->U8(1);
  switch (type.id()) {
    case TypeId::kBool:
      w->U8(s.bool_value() ? 1 : 0);
      break;
    case TypeId::kFloat64:
      w->F64(s.double_value());
      break;
    case TypeId::kString:
      w->Str(s.string_value());
      break;
    case TypeId::kDecimal128:
      // Two little-endian limbs; precision/scale live in the schema.
      w->U64(s.decimal_value().lo);
      w->I64(s.decimal_value().hi);
      break;
    default:
      w->I64(s.int_value());
  }
}

inline Result<Scalar> ReadScalar(ByteReader* r, DataType type) {
  FUSION_ASSIGN_OR_RAISE(uint8_t flag, r->U8());
  if (flag == 0) return Scalar::Null(type);
  switch (type.id()) {
    case TypeId::kBool: {
      FUSION_ASSIGN_OR_RAISE(uint8_t v, r->U8());
      return Scalar::Bool(v != 0);
    }
    case TypeId::kFloat64: {
      FUSION_ASSIGN_OR_RAISE(double v, r->F64());
      return Scalar::Float64(v);
    }
    case TypeId::kString: {
      FUSION_ASSIGN_OR_RAISE(std::string v, r->Str());
      return Scalar::String(std::move(v));
    }
    case TypeId::kInt32: {
      FUSION_ASSIGN_OR_RAISE(int64_t v, r->I64());
      return Scalar::Int32(static_cast<int32_t>(v));
    }
    case TypeId::kDate32: {
      FUSION_ASSIGN_OR_RAISE(int64_t v, r->I64());
      return Scalar::Date32(static_cast<int32_t>(v));
    }
    case TypeId::kTimestamp: {
      FUSION_ASSIGN_OR_RAISE(int64_t v, r->I64());
      return Scalar::Timestamp(v);
    }
    case TypeId::kDecimal128: {
      FUSION_ASSIGN_OR_RAISE(uint64_t lo, r->U64());
      FUSION_ASSIGN_OR_RAISE(int64_t hi, r->I64());
      return Scalar::Decimal(Decimal128(hi, lo), type);
    }
    default: {
      FUSION_ASSIGN_OR_RAISE(int64_t v, r->I64());
      return Scalar::Int64(v);
    }
  }
}

}  // namespace internal
}  // namespace fpq
}  // namespace format
}  // namespace fusion

#endif  // FUSION_FORMAT_FPQ_INTERNAL_H_
