// Ground values and tuples of the Datalog engine.
//
// A Value is either a 63-bit signed integer or an interned symbol.  Both
// fit one machine word, so relations are flat and joins stay cache-friendly
// — the retail workloads the paper's traces come from are exactly
// large-join Datalog programs.
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <new>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/error.hpp"

namespace dsched::datalog {

/// Interns symbol strings; symbol ids are dense and stable.
class SymbolTable {
 public:
  /// Returns the id of `name`, interning it on first sight.
  std::uint32_t Intern(std::string_view name);

  /// The text of a previously interned symbol.
  [[nodiscard]] const std::string& NameOf(std::uint32_t id) const;

  [[nodiscard]] std::size_t Size() const { return names_.size(); }

 private:
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::vector<std::string> names_;
};

/// One ground value: tagged 64-bit word.
class Value {
 public:
  Value() : bits_(0) {}

  /// Integer value; must fit 63 bits.
  static Value Int(std::int64_t v) {
    DSCHED_CHECK_MSG(v >= kMinInt && v <= kMaxInt,
                     "integer value out of 63-bit range");
    return Value((static_cast<std::uint64_t>(v) << 1) | 0U);
  }

  /// Symbol value by interned id.
  static Value Symbol(std::uint32_t id) {
    return Value((static_cast<std::uint64_t>(id) << 1) | 1U);
  }

  [[nodiscard]] bool IsInt() const { return (bits_ & 1U) == 0; }
  [[nodiscard]] bool IsSymbol() const { return (bits_ & 1U) == 1; }

  [[nodiscard]] std::int64_t AsInt() const {
    DSCHED_CHECK_MSG(IsInt(), "value is not an integer");
    return static_cast<std::int64_t>(bits_) >> 1;
  }
  [[nodiscard]] std::uint32_t AsSymbol() const {
    DSCHED_CHECK_MSG(IsSymbol(), "value is not a symbol");
    return static_cast<std::uint32_t>(bits_ >> 1);
  }

  /// Raw tagged bits (used by hashing).
  [[nodiscard]] std::uint64_t Bits() const { return bits_; }

  friend bool operator==(Value a, Value b) { return a.bits_ == b.bits_; }
  friend auto operator<=>(Value a, Value b) { return a.bits_ <=> b.bits_; }

  /// Rendering; symbols need the table.
  [[nodiscard]] std::string ToString(const SymbolTable& symbols) const;

  static constexpr std::int64_t kMaxInt = (std::int64_t{1} << 62) - 1;
  static constexpr std::int64_t kMinInt = -(std::int64_t{1} << 62);

 private:
  explicit Value(std::uint64_t bits) : bits_(bits) {}
  std::uint64_t bits_;
};

/// Non-owning view of one row: `arity` tagged words, usually pointing
/// straight into a Relation's arena.  A Tuple converts implicitly.
using RowView = std::span<const Value>;

/// A ground tuple (one relation row), owning storage.  A small vector:
/// up to kInlineCapacity values live inside the 48-byte object, so the
/// rows a maintenance phase copies, buffers and moves (arity ≤ 4 in
/// practice) never touch the heap; a wider row spills into one heap
/// buffer.  Implements the std::vector subset the engine uses, with the
/// same element ordering (lexicographic, shorter prefix first).
class Tuple {
 public:
  using value_type = Value;
  using size_type = std::size_t;
  using difference_type = std::ptrdiff_t;
  using reference = Value&;
  using const_reference = const Value&;
  using pointer = Value*;
  using const_pointer = const Value*;
  using iterator = Value*;
  using const_iterator = const Value*;

  static constexpr size_type kInlineCapacity = 4;

  Tuple() noexcept : data_(inline_) {}
  explicit Tuple(size_type n) : Tuple(n, Value()) {}
  Tuple(size_type n, Value v) : Tuple() {
    Grow(n);
    std::fill_n(data_, n, v);
    size_ = static_cast<std::uint32_t>(n);
  }
  template <std::forward_iterator It>
  Tuple(It first, It last) : Tuple() {
    insert(end(), first, last);
  }
  Tuple(std::initializer_list<Value> values)
      : Tuple(values.begin(), values.end()) {}

  Tuple(const Tuple& other) : Tuple(other.begin(), other.end()) {}
  Tuple(Tuple&& other) noexcept : Tuple() { StealFrom(other); }
  Tuple& operator=(const Tuple& other) {
    if (this != &other) {
      clear();
      insert(end(), other.begin(), other.end());
    }
    return *this;
  }
  Tuple& operator=(Tuple&& other) noexcept {
    if (this != &other) {
      Release();
      StealFrom(other);
    }
    return *this;
  }
  ~Tuple() { Release(); }

  [[nodiscard]] size_type size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] size_type capacity() const { return capacity_; }
  /// True while the values live inside the object (no heap buffer).
  [[nodiscard]] bool IsInline() const { return data_ == inline_; }

  [[nodiscard]] Value* data() { return data_; }
  [[nodiscard]] const Value* data() const { return data_; }
  [[nodiscard]] iterator begin() { return data_; }
  [[nodiscard]] iterator end() { return data_ + size_; }
  [[nodiscard]] const_iterator begin() const { return data_; }
  [[nodiscard]] const_iterator end() const { return data_ + size_; }

  Value& operator[](size_type i) { return data_[i]; }
  const Value& operator[](size_type i) const { return data_[i]; }
  [[nodiscard]] Value& at(size_type i) {
    DSCHED_CHECK_MSG(i < size_, "tuple index out of range");
    return data_[i];
  }
  [[nodiscard]] const Value& at(size_type i) const {
    DSCHED_CHECK_MSG(i < size_, "tuple index out of range");
    return data_[i];
  }
  Value& front() { return data_[0]; }
  const Value& front() const { return data_[0]; }
  Value& back() { return data_[size_ - 1]; }
  const Value& back() const { return data_[size_ - 1]; }

  void reserve(size_type n) { Grow(n); }
  void clear() { size_ = 0; }
  void push_back(Value v) {
    Grow(size_ + 1);
    data_[size_++] = v;
  }
  Value& emplace_back(Value v) {
    push_back(v);
    return back();
  }
  void resize(size_type n) { resize(n, Value()); }
  void resize(size_type n, Value v) {
    Grow(n);
    if (n > size_) {
      std::fill(data_ + size_, data_ + n, v);
    }
    size_ = static_cast<std::uint32_t>(n);
  }

  iterator insert(const_iterator pos, Value v) {
    return insert(pos, &v, &v + 1);
  }
  template <std::forward_iterator It>
  iterator insert(const_iterator pos, It first, It last) {
    const auto at = static_cast<size_type>(pos - data_);
    const auto n = static_cast<size_type>(std::distance(first, last));
    if (size_ + n > capacity_) {
      // Assemble the result in a fresh buffer: the source may alias the
      // old one, which stays alive until the copy is done.
      const size_type cap =
          std::max<size_type>(size_ + n, 2 * size_type{capacity_});
      Value* fresh = Allocate(cap);
      std::copy_n(data_, at, fresh);
      std::copy(first, last, fresh + at);
      std::copy(data_ + at, data_ + size_, fresh + at + n);
      Release();
      data_ = fresh;
      capacity_ = static_cast<std::uint32_t>(cap);
    } else if (at == size_) {
      std::copy(first, last, data_ + size_);
    } else {
      const Tuple staged(first, last);  // the source may alias the tail
      std::copy_backward(data_ + at, data_ + size_, data_ + size_ + n);
      std::copy_n(staged.data_, n, data_ + at);
    }
    size_ += static_cast<std::uint32_t>(n);
    return data_ + at;
  }

  iterator erase(const_iterator pos) { return erase(pos, pos + 1); }
  iterator erase(const_iterator first, const_iterator last) {
    const auto at_index = static_cast<size_type>(first - data_);
    const auto n = static_cast<size_type>(last - first);
    std::copy(data_ + at_index + n, data_ + size_, data_ + at_index);
    size_ -= static_cast<std::uint32_t>(n);
    return data_ + at_index;
  }

  friend bool operator==(const Tuple& a, const Tuple& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend auto operator<=>(const Tuple& a, const Tuple& b) {
    return std::lexicographical_compare_three_way(a.begin(), a.end(),
                                                  b.begin(), b.end());
  }

 private:
  static Value* Allocate(size_type n) {
    DSCHED_CHECK_MSG(n <= UINT32_MAX, "tuple too wide");
    return static_cast<Value*>(::operator new(n * sizeof(Value)));
  }
  /// Ensures room for `n` values, spilling to (or regrowing) the heap.
  void Grow(size_type n) {
    if (n <= capacity_) {
      return;
    }
    const size_type cap = std::max<size_type>(n, 2 * size_type{capacity_});
    Value* fresh = Allocate(cap);
    std::copy_n(data_, size_, fresh);
    Release();
    data_ = fresh;
    capacity_ = static_cast<std::uint32_t>(cap);
  }
  void Release() noexcept {
    if (data_ != inline_) {
      ::operator delete(data_);
      data_ = inline_;
      capacity_ = kInlineCapacity;
    }
  }
  /// Takes `other`'s values (its heap buffer, if any), leaving it empty
  /// and inline.  Requires this tuple to be inline.
  void StealFrom(Tuple& other) noexcept {
    if (other.data_ == other.inline_) {
      std::copy_n(other.inline_, other.size_, inline_);
    } else {
      data_ = other.data_;
      capacity_ = other.capacity_;
      other.data_ = other.inline_;
      other.capacity_ = kInlineCapacity;
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  Value* data_;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = kInlineCapacity;
  union {
    Value inline_[kInlineCapacity];  ///< left uninitialized until written
  };
};

/// Folds a 128-bit product into 64 bits — the wyhash/umash device.  Unlike
/// shift-xor mixers, every input bit diffuses through the multiply into
/// every output bit, so low-entropy tagged values (small ints shifted left
/// by the tag bit, dense symbol ids) do not cluster.
inline std::uint64_t MixHash(std::uint64_t a, std::uint64_t b) {
  const unsigned __int128 m =
      static_cast<unsigned __int128>(a) * static_cast<unsigned __int128>(b);
  return static_cast<std::uint64_t>(m) ^ static_cast<std::uint64_t>(m >> 64);
}

/// Hash of a row of tagged words (wyhash-style word mixer).  The length is
/// folded into the seed so prefixes do not collide.
inline std::uint64_t HashValues(RowView row) {
  std::uint64_t h =
      0x9e3779b97f4a7c15ULL ^ (row.size() * 0x2d358dccaa6c78a5ULL);
  for (const Value v : row) {
    h = MixHash(h ^ v.Bits(), 0x8bb84b93962eacc9ULL);
  }
  return h;
}

/// Tuple/row hash.  Transparent: hashes owning Tuples and arena RowViews
/// identically, so sets keyed by Tuple can be probed with a RowView without
/// materializing.
struct TupleHash {
  using is_transparent = void;
  std::size_t operator()(RowView row) const {
    return static_cast<std::size_t>(HashValues(row));
  }
  std::size_t operator()(const Tuple& t) const {
    return static_cast<std::size_t>(HashValues(RowView(t)));
  }
};

/// Transparent Tuple/RowView equality, companion to TupleHash.
struct TupleEq {
  using is_transparent = void;
  bool operator()(RowView a, RowView b) const {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
};

/// Renders "(a, 3, b)".
[[nodiscard]] std::string TupleToString(const Tuple& tuple,
                                        const SymbolTable& symbols);

}  // namespace dsched::datalog
