#include "model/workload.hpp"

#include "common/logging.hpp"

namespace mcbp::model {

const std::vector<Workload> &
taskZoo()
{
    // Prompt lengths follow section 5.1; decode lengths follow the
    // stage each task exercises in Figs 19/23 (classification decodes a
    // handful of tokens, generation decodes long sequences).
    static const std::vector<Workload> zoo = {
        {"Cola", 256, 16, 8, TaskKind::Classification, 0.25},
        {"MNLI", 512, 16, 8, TaskKind::Classification, 0.25},
        {"SST2", 256, 16, 8, TaskKind::Classification, 0.25},
        {"Wikitext2", 2048, 16, 8, TaskKind::LanguageModeling, 0.18},
        {"Wikilingua", 2048, 64, 8, TaskKind::LanguageModeling, 0.18},
        {"Winogrande", 256, 8, 8, TaskKind::Reasoning, 0.25},
        {"MMLU", 512, 8, 8, TaskKind::Reasoning, 0.22},
        {"MBPP", 1024, 512, 8, TaskKind::Generation, 0.20},
        {"Dolly", 8192, 48, 8, TaskKind::LongContext, 0.10},
    };
    return zoo;
}

const Workload &
findTask(const std::string &name)
{
    for (const auto &t : taskZoo()) {
        if (t.name == name)
            return t;
    }
    fatal("unknown task: " + name);
}

Workload
withLengths(const Workload &base, std::size_t prompt, std::size_t decode)
{
    Workload w = base;
    w.promptLen = prompt;
    w.decodeLen = decode;
    return w;
}

Workload
singleRequest(const Workload &base, std::size_t prompt, std::size_t decode)
{
    Workload w = withLengths(base, prompt, decode);
    w.batch = 1;
    return w;
}

} // namespace mcbp::model
