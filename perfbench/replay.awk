# The replay solver: stands in for an SMT solver that reads SMT-LIB2 on
# standard input. It answers every (check-sat) with the next answer recorded
# in the file named by the `answers` variable, repeating the last one when
# they run out, and every (get-model) with the model recorded for the
# current answer. It never looks at the assertions.
#
#   awk -v answers=FILE -f replay.awk < script.smt2
#
# FILE holds one or more answers. Each starts with a line `sat`, `unsat` or
# `unknown`; the lines after a `sat` up to the next answer are its model.

BEGIN {
    n = 0
    while ((getline line < answers) > 0) {
        if (line == "sat" || line == "unsat" || line == "unknown") {
            status[n] = line
            model[n] = ""
            n++
        } else if (n > 0) {
            model[n - 1] = model[n - 1] line "\n"
        }
    }
    close(answers)
    if (n == 0) {
        print "(error \"replay: no recorded answer in " answers "\")"
        exit 1
    }
    k = -1
}

{
    rest = $0
    while (match(rest, /\((check-sat|get-model)\)/)) {
        command = substr(rest, RSTART + 1, RLENGTH - 2)
        rest = substr(rest, RSTART + RLENGTH)
        if (command == "check-sat") {
            if (k < n - 1)
                k++
            print status[k]
        } else if (k >= 0 && status[k] == "sat") {
            printf "%s", model[k]
        } else {
            print "(error \"replay: model is not available\")"
        }
    }
}
