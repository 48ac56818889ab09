package repro.harness

import repro.SparkSpec

/** The strategy study at the benchmark's size, so a change that loses a
  * strategy's shuffle cut fails the test run and not only the benchmark.
  */
class StrategiesSpec extends SparkSpec {

  test("partial-gather, broadcast and shadow-nodes clear the strategy study's floors") {
    val parts = spark.conf.get("spark.sql.shuffle.partitions")
    StrategiesFloors.check(StrategiesHarness.run(spark, StrategiesFloors.Cfg))
    // the study's fixed layout is the session's again afterwards
    assert(spark.conf.get("spark.sql.shuffle.partitions") == parts)
    assert(spark.conf.getOption("spark.sql.adaptive.coalescePartitions.minPartitionNum").isEmpty)
  }
}
