// apps/sql.h - ukdb: the SQLite stand-in (Figs 16, 17).
//
// SQL subset: CREATE TABLE t (col [INTEGER|TEXT], ...), INSERT INTO t
// VALUES (...), SELECT */cols FROM t [WHERE pk <op> n], DELETE FROM t WHERE
// pk = n, BEGIN/COMMIT (accepted no-ops, like the paper's autocommit insert
// loop). The first INTEGER column is the primary key backing a BTree; row
// payloads are serialized into allocator memory, so the allocator sweep of
// Fig 16 measures real work.
#ifndef APPS_SQL_H_
#define APPS_SQL_H_

#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "apps/btree.h"

namespace apps {

using SqlValue = std::variant<std::int64_t, std::string>;

struct SqlRow {
  std::vector<SqlValue> values;
};

struct SqlResult {
  bool ok = false;
  std::string error;
  std::vector<SqlRow> rows;        // SELECT output
  std::size_t rows_affected = 0;   // INSERT/DELETE
};

class Database {
 public:
  explicit Database(ukalloc::Allocator* alloc) : alloc_(alloc) {}
  ~Database();

  SqlResult Execute(std::string_view sql);

 private:
  struct Column {
    std::string name;
    bool is_text = false;
  };
  struct Table {
    std::vector<Column> columns;
    std::unique_ptr<BTree> index;  // on the first INTEGER column
    std::int64_t auto_key = 1;     // when no integer pk is supplied
  };

  SqlResult Create(class Tokenizer& tok);
  SqlResult Insert(class Tokenizer& tok);
  SqlResult Select(class Tokenizer& tok);
  SqlResult Delete(class Tokenizer& tok);

  // Row (de)serialization into allocator-backed payloads.
  std::vector<std::byte> SerializeRow(const SqlRow& row) const;
  SqlRow DeserializeRow(std::span<const std::byte> data) const;

  // Per-statement compile/execute scratch, like SQLite's VDBE and pager
  // buffers: short-lived, size-varied allocations freed a few statements
  // later. This churn is what exposes allocator behaviour in Fig 16.
  void StatementScratch();

  ukalloc::Allocator* alloc_;
  std::map<std::string, Table> tables_;
  static constexpr std::size_t kScratchRing = 64;
  void* scratch_[kScratchRing] = {};
  std::uint64_t stmt_counter_ = 0;
};

}  // namespace apps

#endif  // APPS_SQL_H_
