package repro.bench

import repro.SparkSpec
import repro.harness.{StrategiesFloors, StrategiesHarness}

/** Strategy studies (the numbers behind the paper's Figs. 9–13):
  * partial-gather must cut shuffle records and bytes on an in-skew graph,
  * broadcast must cut shuffle IO, and shadow-nodes must cap the max
  * out-degree at the threshold ([[StrategiesFloors]]).
  */
class StrategiesBench extends SparkSpec {

  test("strategy IO study: partial-gather / broadcast / shadow-nodes") {
    val r = StrategiesHarness.run(spark, StrategiesFloors.Cfg)
    println("\n" + r.report + "\n")
    StrategiesFloors.check(r)
  }
}
