#ifndef HCM_TOOLKIT_TRANSLATORS_RELATIONAL_TRANSLATOR_H_
#define HCM_TOOLKIT_TRANSLATORS_RELATIONAL_TRANSLATOR_H_

#include "src/ris/relational/database.h"
#include "src/toolkit/translator.h"

namespace hcm::toolkit {

// CM-Translator for the mini relational engine (the Sybase/Oracle stand-in).
// RID commands are SQL templates; parameters are rendered as SQL literals.
// The notify_hint for an item is "trigger <table> <value-column>
// <key-column...>": the translator declares a column-scoped UPDATE trigger
// and derives the item arguments from the key columns of the changed row.
class RelationalTranslator : public Translator {
 public:
  RelationalTranslator(RidConfig config, ris::relational::Database* db,
                       sim::ParallelExecutor* executor, sim::Network* network,
                       trace::TraceRecorder* recorder,
                       const sim::FailureInjector* failures)
      : Translator(std::move(config), executor, network, recorder, failures),
        db_(db) {}

 protected:
  Result<Value> NativeRead(const RidItemMapping& mapping,
                           const std::vector<Value>& args) override;
  Status NativeWrite(const RidItemMapping& mapping,
                     const std::vector<Value>& args,
                     const Value& value) override;
  Result<std::vector<std::vector<Value>>> NativeList(
      const RidItemMapping& mapping) override;
  Status NativeInsert(const RidItemMapping& mapping,
                      const std::vector<Value>& args) override;
  Status NativeDelete(const RidItemMapping& mapping,
                      const std::vector<Value>& args) override;
  Status InstallChangeHook(const RidItemMapping& mapping,
                           ChangeHook hook) override;

 private:
  ris::relational::Database* db_;
};

}  // namespace hcm::toolkit

#endif  // HCM_TOOLKIT_TRANSLATORS_RELATIONAL_TRANSLATOR_H_
