package repro.metrics

import org.apache.spark.scheduler.{SparkListener, SparkListenerTaskEnd}
import repro.SparkSpec

class SparkCostSpec extends SparkSpec {

  test("measure captures executor time and shuffle traffic for a shuffle job") {
    import spark.implicits._
    val (result, cost) = SparkCost.measure(spark, "cost-test") {
      (1 to 10000).toDF("x").groupBy($"x" % 7).count().collect().length
    }
    assert(result == 7)
    assert(cost.wallMs > 0)
    assert(cost.execRunMs >= 0 && cost.shuffleWriteRecords > 0)
  }

  test("separate tags accumulate independently") {
    import spark.implicits._
    val (_, c1) = SparkCost.measure(spark, "tag-a") {
      (1 to 1000).toDF("x").groupBy($"x" % 3).count().collect()
    }
    val (_, c2) = SparkCost.measure(spark, "tag-b") {
      (1 to 100000).toDF("x").groupBy($"x" % 3).count().collect()
    }
    assert(c2.shuffleWriteBytes >= 0 && c1.shuffleWriteRecords > 0)
    assert(c1.shuffleWriteRecords <= c2.shuffleWriteRecords + 3)
  }

  test("measure waits for task events held up by a slow listener") {
    val slow = new SparkListener {
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit = Thread.sleep(150)
    }
    spark.sparkContext.addSparkListener(slow)
    try {
      val (_, c) = SparkCost.measure(spark, "slow-bus") {
        spark.range(0, 1000, 1, 8).repartition(4).count()
      }
      // the repartition shuffles 1000 rows; each of its 4 partitions then
      // shuffles one partial count
      assert(c.shuffleWriteRecords == 1000 + 4)
    } finally spark.sparkContext.removeSparkListener(slow)
  }

  test("cpuSec includes reported driver time") {
    val (_, c) = SparkCost.measure(spark, "driver-add") { 42 }
    val withDriver = c.withDriver(6000)
    assert(withDriver.cpuSec >= c.cpuSec + 6.0 - 1e-9)
  }

  test("cost subtraction is field-wise") {
    val a = Cost(10, 20, 30, 40, 50, 60, 70, 5)
    val b = Cost(1, 2, 3, 4, 5, 6, 7, 1)
    val d = a - b
    assert(d == Cost(9, 18, 27, 36, 45, 54, 63, 4))
  }
}
