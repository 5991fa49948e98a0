#ifndef FUSION_FLIGHT_WIRE_H_
#define FUSION_FLIGHT_WIRE_H_

#include <sys/uio.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/result.h"

namespace fusion {
namespace flight {

/// \brief The flight wire protocol, version 1.
///
/// Everything on the socket is a length-prefixed *frame*:
///
///   u32 magic   "FLT1" (0x464C5431)
///   u16 version 1
///   u8  type    FrameType
///   u8  flags   FrameFlags bitmask
///   u64 body_len
///   [body_len bytes]
///
/// A reader validates magic, version and body_len (against the shared
/// ipc::MaxFrameBytes() cap) before allocating the body, so a hostile
/// peer can neither wrap the bounds check nor drive an unbounded
/// allocation. Batches travel inside kBatch/kPutBatch bodies as the
/// hardened ipc blob format, dictionary encoding preserved.
///
/// The conversation is sequential per connection: the client sends one
/// request frame (plus kPutBatch.../kPutDone for uploads) and reads
/// response frames until kStreamEnd / kOk / kPrepared / kError. Errors
/// are per-request; the connection stays usable afterwards.

constexpr uint32_t kFrameMagic = 0x464C5431;  // "FLT1"
constexpr uint16_t kProtocolVersion = 1;
constexpr size_t kFrameHeaderBytes = 16;

enum class FrameType : uint8_t {
  // Client -> server requests.
  kDoGet = 1,           ///< body: u64 timeout_ms, string sql
  kPrepare = 2,         ///< body: string sql
  kDoGetPrepared = 3,   ///< body: u64 handle, u64 timeout_ms
  kDoPut = 4,           ///< body: string table name; then kPutBatch*, kPutDone
  kPutBatch = 5,        ///< body: ipc blob
  kPutDone = 6,         ///< empty body
  kClosePrepared = 7,   ///< body: u64 handle
  kPing = 8,            ///< empty body

  // Server -> client responses.
  kBatch = 16,      ///< body: ipc blob (one result batch)
  kStreamEnd = 17,  ///< body: u64 rows, u64 batches — do-get completed
  kError = 18,      ///< body: u32 status code, string message
  kOk = 19,         ///< body: u64 value (rows for puts, 0 otherwise)
  kPrepared = 20,   ///< body: u64 statement handle
};

enum FrameFlags : uint8_t {
  /// kBatch body contains at least one dictionary-encoded column.
  kFlagDictionary = 1,
  /// kDoPut: replace an existing table of the same name.
  kFlagReplaceTable = 2,
};

/// One parsed frame.
struct Frame {
  FrameType type = FrameType::kPing;
  uint8_t flags = 0;
  std::vector<uint8_t> body;
};

/// \brief Append-only body builder (all integers little-endian).
class BodyWriter {
 public:
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  /// u32 length + raw bytes.
  void PutString(const std::string& s);
  void PutBytes(const uint8_t* data, size_t len);

  std::vector<uint8_t> Finish() { return std::move(body_); }

 private:
  std::vector<uint8_t> body_;
};

/// \brief Bounds-checked body parser: every read validates against the
/// remaining bytes (`len > remaining`, wrap-proof) and string lengths
/// are checked before allocation. Malformed bodies yield IOError.
class BodyReader {
 public:
  BodyReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit BodyReader(const std::vector<uint8_t>& body)
      : BodyReader(body.data(), body.size()) {}

  size_t remaining() const { return size_ - pos_; }
  const uint8_t* position() const { return data_ + pos_; }

  Result<uint32_t> U32();
  Result<uint64_t> U64();
  Result<std::string> String();
  /// All bytes from the current position to the end of the body.
  Status Done() const;  ///< error if bytes remain unconsumed

 private:
  Status Read(void* out, size_t len);

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// \brief Blocking socket with frame send/recv. Owns the fd.
///
/// `fault_site_prefix` names the FaultInjector sites consulted per
/// frame ("flight" -> flight.read / flight.write on the server side);
/// empty disables injection (the client side), so scripted server
/// faults do not also fire in the client under test.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd, std::string fault_site_prefix = "")
      : fd_(fd), fault_site_prefix_(std::move(fault_site_prefix)) {}
  ~Socket() { Close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept { *this = std::move(other); }
  Socket& operator=(Socket&& other) noexcept;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Send one frame, fully or with an IOError. Header and body go out
  /// in one gathered write, so the body never waits for the peer's ACK
  /// of the header.
  Status SendFrame(FrameType type, uint8_t flags, const uint8_t* body,
                   size_t body_len);
  Status SendFrame(FrameType type, uint8_t flags, const std::vector<uint8_t>& body) {
    return SendFrame(type, flags, body.data(), body.size());
  }

  /// Read one frame. Returns IOError on malformed header, oversized
  /// body (> max_body_bytes), or connection loss; `eof_ok` turns a
  /// clean close before any header byte into a Frame-less nullopt-style
  /// error with Status code kCancelled (callers treat it as hangup).
  Result<Frame> ReadFrame(int64_t max_body_bytes);

  /// Half-close / full close used to wake a peer or a blocked reader.
  void ShutdownBoth();
  void Close();

 private:
  /// Gathered write of every iovec (consumed in place).
  Status WriteFully(iovec* iov, int iovcnt);
  Status ReadFully(uint8_t* data, size_t len, bool* clean_eof);

  int fd_ = -1;
  std::string fault_site_prefix_;
};

/// Status for "the peer hung up cleanly between requests".
bool IsHangup(const Status& status);

/// Build + parse the error-frame body (status code round-trips).
std::vector<uint8_t> EncodeError(const Status& status);
Status DecodeError(const std::vector<uint8_t>& body);

/// Set up a connected stream socket, accepted or dialled: disables
/// Nagle's algorithm (TCP_NODELAY), so a reply never sits in the kernel
/// until the peer's delayed ACK (~40 ms) arrives.
void ConfigureStreamSocket(int fd);

/// TCP helpers (IPv4). `port` 0 binds an ephemeral port; the bound port
/// is returned through `out_port`.
Result<Socket> ListenTcp(const std::string& address, int port, int* out_port);
Result<Socket> ConnectTcp(const std::string& address, int port);

}  // namespace flight
}  // namespace fusion

#endif  // FUSION_FLIGHT_WIRE_H_
